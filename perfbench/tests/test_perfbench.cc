/**
 * @file
 * Unit tests of the benchmark's own arithmetic: the percentile guard,
 * span self time and unattributed share, and the seeded request mix.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "mix.hh"
#include "spans.hh"
#include "stats.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> values;
    for (int i = n; i >= 1; i--)
        values.push_back(i);
    return values;
}

} // namespace

TEST(PercentileGuard, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesNeeded(0.50), 20u);
    EXPECT_EQ(samplesNeeded(0.90), 100u);
    EXPECT_EQ(samplesNeeded(0.95), 200u);
    EXPECT_EQ(samplesNeeded(0.99), 1000u);
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
    EXPECT_EQ(samplesBeyond(0, 0.5), 0u);
}

TEST(PercentileGuard, RefusesAnUnsupportedTail)
{
    EXPECT_THROW(guardedPercentile(oneTo(999), 0.99, "x"),
                 icicle::FatalError);
    EXPECT_THROW(guardedPercentile(oneTo(19), 0.50, "x"),
                 icicle::FatalError);
    EXPECT_THROW(guardedPercentile({}, 0.50, "x"), icicle::FatalError);
}

TEST(PercentileGuard, NearestRankWhenSupported)
{
    // Input is unsorted (descending); nearest rank of 1..1000.
    EXPECT_EQ(guardedPercentile(oneTo(1000), 0.99, "x"), 990);
    EXPECT_EQ(guardedPercentile(oneTo(200), 0.95, "x"), 190);
    EXPECT_EQ(guardedPercentile(oneTo(20), 0.50, "x"), 10);
}

TEST(Stats, MedianAndGeomean)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
    EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_EQ(geomean({}), 0);
}

TEST(Stats, FasterHalfPicksTheCheapestWindowsRoundedUp)
{
    EXPECT_EQ(fasterHalf({5, 1, 4, 2, 3, 6}),
              (std::vector<std::size_t>{1, 3, 4}));
    // Odd counts round up; ties keep window order.
    EXPECT_EQ(fasterHalf({2, 1, 2, 1, 9}),
              (std::vector<std::size_t>{1, 3, 0}));
    EXPECT_EQ(fasterHalf({7}), (std::vector<std::size_t>{0}));
    EXPECT_TRUE(fasterHalf({}).empty());
}

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren)
{
    SpanLog log;
    const auto root = log.add("root", 7, kNoParent, 0, 10);
    const auto a = log.add("a", 7, root, 1, 3);
    log.add("b", 7, root, 2, 5);     // overlaps a: counted once
    log.add("c", 7, root, 8, 12);    // clipped to the root's end
    log.add("a.child", 7, a, 1, 2);  // grandchild: a's, not root's
    const std::vector<double> self = selfTimes(log.spans());
    EXPECT_DOUBLE_EQ(self[0], 10 - (4 + 2));
    EXPECT_DOUBLE_EQ(self[1], 2 - 1);
    EXPECT_DOUBLE_EQ(self[2], 3);
    EXPECT_DOUBLE_EQ(self[3], 4);
    EXPECT_DOUBLE_EQ(self[4], 1);
}

TEST(Spans, ChildOutsideItsParentCoversNothing)
{
    SpanLog log;
    const auto root = log.add("root", 1, kNoParent, 0, 1);
    log.add("late", 1, root, 2, 3);
    EXPECT_DOUBLE_EQ(selfTimes(log.spans())[0], 1);
}

TEST(Spans, MergeRebasesParentsAndFinishSetsTheEnd)
{
    SpanLog first;
    first.add("x", 1, kNoParent, 0, 1);
    SpanLog second;
    const auto root = second.add("x", 2, kNoParent, 0, 4);
    second.add("y", 2, root, 1, 2);
    first.merge(second);
    ASSERT_EQ(first.spans().size(), 3u);
    EXPECT_EQ(first.spans()[1].parent, kNoParent);
    EXPECT_EQ(first.spans()[2].parent, 1);
    EXPECT_EQ(first.spans()[2].id, 2u);
    first.finish(0, 3);
    EXPECT_DOUBLE_EQ(first.spans()[0].duration(), 3);
    EXPECT_DOUBLE_EQ(selfTimes(first.spans())[1], 3);
}

TEST(Spans, UnattributedShare)
{
    EXPECT_DOUBLE_EQ(unattributedShare(10, 7.5), 0.25);
    EXPECT_DOUBLE_EQ(unattributedShare(10, 10), 0);
    // Parts measured apart can overshoot: the share goes negative.
    EXPECT_DOUBLE_EQ(unattributedShare(10, 12), -0.2);
    EXPECT_DOUBLE_EQ(unattributedShare(0, 3), 0);
}

TEST(Mix, ProportionsFollowTheSeededDraw)
{
    constexpr int kDraws = 100'000;
    for (u64 seed : {1ull, 2ull, 12345ull}) {
        int kinds[3] = {0, 0, 0};
        for (u32 client = 0; client < kMixClients; client++) {
            RequestMix mix(seed, client, 8, 64);
            for (int i = 0; i < kDraws; i++)
                kinds[static_cast<int>(mix.next().kind)]++;
        }
        const double total = 3.0 * kDraws;
        EXPECT_NEAR(kinds[0] / total, 0.80, 0.01) << seed;
        EXPECT_NEAR(kinds[1] / total, 0.10, 0.01) << seed;
        EXPECT_NEAR(kinds[2] / total, 0.10, 0.01) << seed;
    }
}

TEST(Mix, SameSeedSameSequenceOtherSeedOrClientDiffers)
{
    RequestMix a(7, 0, 8, 64), b(7, 0, 8, 64), c(8, 0, 8, 64),
        d(7, 1, 8, 64);
    int same_c = 0, same_d = 0;
    for (int i = 0; i < 1000; i++) {
        const MixRequest ra = a.next(), rb = b.next(), rc = c.next(),
                         rd = d.next();
        EXPECT_EQ(static_cast<int>(ra.kind), static_cast<int>(rb.kind));
        EXPECT_EQ(ra.pair, rb.pair);
        EXPECT_EQ(ra.seed, rb.seed);
        EXPECT_EQ(ra.window, rb.window);
        same_c += ra.kind == rc.kind && ra.pair == rc.pair;
        same_d += ra.kind == rd.kind && ra.pair == rd.pair;
    }
    EXPECT_LT(same_c, 900);
    EXPECT_LT(same_d, 900);
}

TEST(Mix, ColdSeedsAreUniqueAndNeverHot)
{
    std::set<u64> seen;
    for (u32 client = 0; client < kMixClients; client++) {
        RequestMix mix(99, client, 8, 64);
        for (int i = 0; i < 20'000; i++) {
            const MixRequest req = mix.next();
            EXPECT_LT(req.pair, 8u);
            EXPECT_LT(req.window, 64u);
            if (req.kind == RequestKind::Cold) {
                EXPECT_NE(req.seed, kHotSeed);
                EXPECT_TRUE(seen.insert(req.seed).second);
            } else {
                EXPECT_EQ(req.seed, kHotSeed);
            }
        }
    }
    EXPECT_GT(seen.size(), 5000u);
}

TEST(Mix, WindowsAreOneToThreeBlocksInsideTheStore)
{
    const auto windows = drawWindows(5, 0, 1'000'000, 65536, 500);
    ASSERT_EQ(windows.size(), 500u);
    std::set<u64> widths;
    for (const auto &[begin, end] : windows) {
        EXPECT_LE(end, 1'000'000u);
        EXPECT_EQ((end - begin) % 65536, 0u);
        widths.insert((end - begin) / 65536);
    }
    EXPECT_EQ(widths, (std::set<u64>{1, 2, 3}));
    EXPECT_EQ(drawWindows(5, 0, 1'000'000, 65536, 500), windows);
    EXPECT_NE(drawWindows(5, 1, 1'000'000, 65536, 500), windows);
    EXPECT_THROW(drawWindows(5, 0, 100'000, 65536, 1),
                 icicle::FatalError);
}
