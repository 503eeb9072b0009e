/**
 * @file
 * Per-test scratch paths for tests that touch the file system.
 *
 * ctest runs every TEST as its own process (gtest_discover_tests), in
 * parallel and possibly repeated, so a fixed file name under
 * ::testing::TempDir() is shared by concurrent processes: one test's
 * fixture can overwrite or delete another's file mid-test.  A path
 * built from the running test's name plus the process id cannot
 * collide with any other process.  The suite name is left out to keep
 * paths short: a daemon's socket lives inside its spool directory,
 * and AF_UNIX paths are limited to 107 bytes.
 */

#ifndef VPC_TESTS_TEMP_PATH_HH
#define VPC_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "sim/format.hh"

namespace vpc
{

/**
 * Removes the registered paths when the registering process exits.
 * Forked children inherit the registry but never clean up: the paths
 * belong to the parent, which may still be using them.
 */
class TempPathRegistry
{
  public:
    static TempPathRegistry &
    instance()
    {
        static TempPathRegistry r;
        return r;
    }

    void add(const std::string &p) { paths_.push_back(p); }

    ~TempPathRegistry()
    {
        if (::getpid() != owner_)
            return;
        std::error_code ec;
        for (const std::string &p : paths_)
            std::filesystem::remove_all(p, ec);
    }

  private:
    TempPathRegistry() : owner_(::getpid()) {}

    pid_t owner_;
    std::vector<std::string> paths_;
};

/**
 * @return "<TempDir>/<tag>_<Test>_<pid>" for the running test,
 * removed now and again at process exit.  @p tag names the caller
 * (file and purpose), so it also tells apart suites that share a
 * test name and several paths within one test.
 */
inline std::string
testTempPath(const std::string &tag)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info == nullptr
        ? std::string("global")
        : std::string(info->name());
    for (char &c : test) {
        if (c == '/')
            c = '_'; // parameterized names contain '/'
    }
    std::string path = format("{}/{}_{}_{}", ::testing::TempDir(), tag,
                              test, static_cast<long>(::getpid()));
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    TempPathRegistry::instance().add(path);
    return path;
}

} // namespace vpc

#endif // VPC_TESTS_TEMP_PATH_HH
