/**
 * @file
 * Journal tests: the append-only event log must replay exactly what
 * was written, skip torn or foreign lines instead of misreading them,
 * and count attempts ("start" events) per job across daemon restarts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "service/journal.hh"
#include "sim/format.hh"
#include "temp_path.hh"

namespace vpc
{
namespace
{

std::string
testPath(const std::string &name)
{
    // A directory per test, so sealed segments (<path>.N) are
    // removed with it.
    std::string dir = testTempPath("vpc_journal_" + name);
    std::filesystem::create_directories(dir);
    return dir + "/journal.log";
}

TEST(JobJournal, AppendThenReplay)
{
    std::string path = testPath("roundtrip");
    JobJournal j(path);
    j.append(0x1, "start");
    j.append(0x1, "done");
    j.append(0xabcdef0123456789ull, "start");

    auto events = j.replay();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].digest, 0x1u);
    EXPECT_EQ(events[0].name, "start");
    EXPECT_EQ(events[1].name, "done");
    EXPECT_EQ(events[2].digest, 0xabcdef0123456789ull);
}

TEST(JobJournal, ReplaySurvivesReopen)
{
    std::string path = testPath("reopen");
    {
        JobJournal j(path);
        j.append(0x5, "start");
        j.append(0x5, "fail");
        j.append(0x5, "requeue");
    }
    // A restarted daemon opens the same file and sees the history.
    JobJournal j(path);
    j.append(0x5, "start");
    auto attempts = j.replayAttempts();
    EXPECT_EQ(attempts[0x5], 2u);
    EXPECT_EQ(j.replay().size(), 4u);
}

TEST(JobJournal, ReplayAttemptsCountsStartsOnly)
{
    std::string path = testPath("attempts");
    JobJournal j(path);
    j.append(0xa, "start");
    j.append(0xa, "fail");
    j.append(0xa, "requeue");
    j.append(0xa, "start");
    j.append(0xa, "done");
    j.append(0xb, "recover");

    auto attempts = j.replayAttempts();
    EXPECT_EQ(attempts[0xa], 2u);
    EXPECT_EQ(attempts.count(0xb), 0u); // no starts: not an attempt
}

TEST(JobJournal, TornFinalLineIsSkippedNotMisread)
{
    std::string path = testPath("torn");
    {
        JobJournal j(path);
        j.append(0x1, "start");
        j.append(0x2, "start");
    }
    // Simulate a crash mid-append: chop the file inside the last line
    // (no terminating newline).
    std::uintmax_t size = std::filesystem::file_size(path);
    ASSERT_EQ(::truncate(path.c_str(), size - 3), 0);

    JobJournal j(path);
    auto events = j.replay();
    ASSERT_EQ(events.size(), 1u); // only the intact first line
    EXPECT_EQ(events[0].digest, 0x1u);

    // Appending after the torn tail produces a merged garbage line;
    // it too is skipped, and later lines still parse.
    j.append(0x3, "done");
    events = j.replay();
    ASSERT_EQ(events.size(), 1u);
    j.append(0x4, "start");
    events = j.replay();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].digest, 0x4u);
}

TEST(JobJournal, GarbageLinesAreSkipped)
{
    std::string path = testPath("garbage");
    {
        std::ofstream f(path);
        f << "not a journal line\n";
        f << "0123456789abcdef start\n";        // valid
        f << "0123456789abcdeZ start\n";        // bad hex
        f << "0123456789abcdef\n";              // missing event
        f << "0123456789abcdef st4rt\n";        // non-alpha event
        f << "0123456789abcdefdone\n";          // missing separator
        f << "\n";
        f << "0123456789abcdef done\n";         // valid
    }
    JobJournal j(path);
    auto events = j.replay();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "start");
    EXPECT_EQ(events[1].name, "done");
    EXPECT_EQ(events[0].digest, 0x0123456789abcdefull);
}

TEST(JobJournal, MissingFileReplaysEmpty)
{
    std::string path = testPath("fresh");
    JobJournal j(path);
    EXPECT_TRUE(j.replay().empty());
    EXPECT_TRUE(j.replayAttempts().empty());
}

TEST(JobJournal, RotationSealsSegmentsAndReplaySpansThemAll)
{
    std::string path = testPath("rotate");
    // Each line is 16 + 1 + len(event) + 1 bytes; a 64-byte threshold
    // rotates every couple of appends.
    JobJournal j(path, 64);
    for (std::uint64_t i = 0; i < 20; ++i)
        j.append(0xc0de, "start");

    EXPECT_GE(j.segments().size(), 2u);
    // The active file stays under (threshold + one line).
    EXPECT_LT(std::filesystem::file_size(path), 64u + 32u);
    // History is intact across every sealed segment.
    EXPECT_EQ(j.replay().size(), 20u);
    EXPECT_EQ(j.replayAttempts()[0xc0de], 20u);
}

TEST(JobJournal, RotationResumesNumberingAcrossReopen)
{
    std::string path = testPath("rotate_reopen");
    std::size_t sealed_before = 0;
    {
        JobJournal j(path, 64);
        for (std::uint64_t i = 0; i < 10; ++i)
            j.append(0x1, "start");
        sealed_before = j.segments().size();
        ASSERT_GE(sealed_before, 1u);
    }
    // A restarted daemon must not overwrite sealed history: new
    // segments continue the numbering and replay sees everything.
    JobJournal j(path, 64);
    for (std::uint64_t i = 0; i < 10; ++i)
        j.append(0x1, "start");
    EXPECT_GT(j.segments().size(), sealed_before);
    EXPECT_EQ(j.replayAttempts()[0x1], 20u);
}

TEST(JobJournal, ReopenedJournalCountsExistingBytesTowardRotation)
{
    std::string path = testPath("rotate_size_resume");
    // Four "start" lines = 4 x 23 = 92 bytes: just under a 100-byte
    // threshold, so the first life seals nothing.
    {
        JobJournal j(path, 100);
        for (std::uint64_t i = 0; i < 4; ++i)
            j.append(0x9, "start");
        ASSERT_TRUE(j.segments().empty());
    }
    // A restarted daemon must resume the size accounting from the
    // bytes already on disk (ftell right after fopen "ab" reports 0
    // until the first write): the very next append crosses the
    // threshold and rotates — not 100 bytes later.
    JobJournal j(path, 100);
    j.append(0x9, "start");
    EXPECT_EQ(j.segments().size(), 1u);
    EXPECT_EQ(j.replayAttempts()[0x9], 5u);
}

TEST(JobJournal, SegmentPruningKeepsOnlyTheNewest)
{
    std::string path = testPath("prune");
    JobJournal j(path, 64, 2);
    for (std::uint64_t i = 0; i < 40; ++i)
        j.append(0xf00d, "start");

    auto segs = j.segments();
    ASSERT_EQ(segs.size(), 2u);
    // The survivors are the newest (highest-numbered) ones, so the
    // retained history is a strict suffix: fewer starts than written,
    // but every surviving line parses.
    unsigned counted = j.replayAttempts()[0xf00d];
    EXPECT_GT(counted, 0u);
    EXPECT_LT(counted, 40u);
}

TEST(JobJournal, UnrotatedJournalHasNoSegments)
{
    std::string path = testPath("norotate");
    JobJournal j(path); // rotate_bytes = 0: never rotate
    for (std::uint64_t i = 0; i < 50; ++i)
        j.append(0x2, "start");
    EXPECT_TRUE(j.segments().empty());
    EXPECT_EQ(j.replayAttempts()[0x2], 50u);
}

} // namespace
} // namespace vpc
