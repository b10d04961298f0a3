/**
 * @file
 * Unit tests for the cache substrate: MOESI helpers, CacheLine mark
 * management, the set-associative array with LRU replacement, the L1
 * filter, and the TLB.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/tlb.hh"

namespace ptm
{
namespace
{

TEST(Moesi, StatePredicates)
{
    EXPECT_TRUE(moesiDirty(Moesi::M));
    EXPECT_TRUE(moesiDirty(Moesi::O));
    EXPECT_FALSE(moesiDirty(Moesi::E));
    EXPECT_FALSE(moesiDirty(Moesi::S));
    EXPECT_TRUE(moesiWritable(Moesi::M));
    EXPECT_TRUE(moesiWritable(Moesi::E));
    EXPECT_FALSE(moesiWritable(Moesi::O));
    EXPECT_FALSE(moesiWritable(Moesi::S));
}

TEST(CacheLine, MarkLifecycle)
{
    CacheLine l;
    EXPECT_FALSE(l.transactional());
    TxMark &m = l.mark(7);
    m.readWords = 0x00f0;
    l.mark(7).writeWords = 0x0001;
    EXPECT_TRUE(l.transactional());
    EXPECT_EQ(l.marks.size(), 1u); // same tx reuses its mark
    l.mark(9).writeWords = 0x0002;
    EXPECT_EQ(l.marks.size(), 2u);
    EXPECT_EQ(l.writeMask(), 0x0003);
    EXPECT_EQ(l.writerCount(), 2u);
    l.removeMark(7);
    EXPECT_EQ(l.marks.size(), 1u);
    EXPECT_EQ(l.findMark(7), nullptr);
    EXPECT_NE(l.findMark(9), nullptr);
    l.invalidate();
    EXPECT_FALSE(l.valid());
    EXPECT_FALSE(l.transactional());
}

TEST(CacheLine, WordAccessors)
{
    CacheLine l;
    l.writeWord32(12, 0xdeadbeef);
    EXPECT_EQ(l.readWord32(12), 0xdeadbeefu);
    EXPECT_EQ(l.readWord32(8), 0u);
}

TEST(CacheArray, FindAndVictimLru)
{
    // 8 lines, 2-way: 4 sets. Addresses with equal set bits collide.
    CacheArray c(8 * blockBytes, 2);
    EXPECT_EQ(c.numSets(), 4u);

    Addr a0 = 0 * blockBytes;          // set 0
    Addr a1 = 4 * blockBytes;          // set 0
    Addr a2 = 8 * blockBytes;          // set 0

    CacheLine &l0 = c.victim(a0);
    l0.addr = a0;
    l0.state = Moesi::E;
    c.touch(l0);
    CacheLine &l1 = c.victim(a1);
    l1.addr = a1;
    l1.state = Moesi::E;
    c.touch(l1);

    EXPECT_EQ(c.find(a0), &l0);
    EXPECT_EQ(c.find(a1), &l1);
    EXPECT_EQ(c.find(a2), nullptr);

    // Touch a0 so a1 is LRU; the next victim in set 0 must be a1.
    c.touch(*c.find(a0));
    CacheLine &v = c.victim(a2);
    EXPECT_EQ(&v, &l1);
}

TEST(CacheArray, ForEachValidSkipsInvalid)
{
    CacheArray c(8 * blockBytes, 2);
    CacheLine &l = c.victim(0);
    l.addr = 0;
    l.state = Moesi::S;
    unsigned n = 0;
    c.forEachValid([&](CacheLine &) { ++n; });
    EXPECT_EQ(n, 1u);
    l.invalidate();
    n = 0;
    c.forEachValid([&](CacheLine &) { ++n; });
    EXPECT_EQ(n, 0u);
}

// Sets are built on first fill: an unfilled set finds nothing, its
// first victim is way 0 (the invalid way an eagerly built set would
// give), and filling one set leaves the others empty.
TEST(CacheArray, SetsAreBuiltOnFirstFill)
{
    CacheArray c(16 * blockBytes, 4); // 4 sets of 4 ways
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(c.find(s * blockBytes), nullptr);
    unsigned n = 0;
    c.forEachValid([&](CacheLine &) { ++n; });
    EXPECT_EQ(n, 0u);

    // Fill all four ways of set 1 (addresses 1, 5, 9, 13 blocks).
    std::vector<CacheLine *> ways;
    for (unsigned w = 0; w < 4; ++w) {
        Addr a = (1 + 4 * w) * blockBytes;
        CacheLine &l = c.victim(a);
        EXPECT_FALSE(l.valid());
        EXPECT_TRUE(l.marks.empty());
        EXPECT_EQ(l.dirtyWords, 0u);
        EXPECT_EQ(l.readWord32(0), 0u);
        l.addr = a;
        l.state = Moesi::M;
        c.touch(l);
        ways.push_back(&l);
    }
    // Way order within the set is the fill order: way 0 first.
    for (unsigned w = 1; w < 4; ++w)
        EXPECT_EQ(ways[w], ways[0] + w);
    EXPECT_EQ(c.find(0), nullptr); // set 0 is still unbuilt
    n = 0;
    c.forEachValid([&](CacheLine &l) {
        EXPECT_EQ(&l, ways[n]);
        ++n;
    });
    EXPECT_EQ(n, 4u);
}

TEST(L1Filter, InsertFindInvalidate)
{
    L1Filter f(8 * blockBytes, 1);
    Addr a = 3 * blockBytes;
    EXPECT_EQ(f.find(a), nullptr);
    L1Filter::Entry &e = f.insert(a);
    e.writable = true;
    EXPECT_NE(f.find(a), nullptr);
    f.downgrade(a);
    EXPECT_FALSE(f.find(a)->writable);
    f.invalidate(a);
    EXPECT_EQ(f.find(a), nullptr);
}

TEST(L1Filter, DirectMappedConflictEvicts)
{
    L1Filter f(8 * blockBytes, 1);
    Addr a = 2 * blockBytes;
    Addr b = a + 8 * blockBytes; // same set, direct mapped
    f.insert(a);
    f.insert(b);
    EXPECT_EQ(f.find(a), nullptr);
    EXPECT_NE(f.find(b), nullptr);
}

TEST(Tlb, HitMissAndLru)
{
    Tlb t(2);
    EXPECT_EQ(t.lookup(0, 10), invalidPage);
    t.insert(0, 10, 100);
    t.insert(0, 11, 101);
    EXPECT_EQ(t.lookup(0, 10), 100u);
    EXPECT_EQ(t.lookup(0, 11), 101u);
    // 10 was used less recently than 11? lookup(10) then lookup(11):
    // 10 older -> inserting a third entry evicts 10.
    t.lookup(0, 11);
    t.insert(0, 12, 102);
    EXPECT_EQ(t.lookup(0, 12), 102u);
    EXPECT_EQ(t.lookup(0, 10), invalidPage);
    EXPECT_EQ(t.misses.value(), 2u);
    EXPECT_EQ(t.hits.value(), 4u);
}

TEST(Tlb, ProcessTagged)
{
    Tlb t(4);
    t.insert(0, 10, 100);
    t.insert(1, 10, 200);
    EXPECT_EQ(t.lookup(0, 10), 100u);
    EXPECT_EQ(t.lookup(1, 10), 200u);
    t.flushProc(0);
    EXPECT_EQ(t.lookup(0, 10), invalidPage);
    EXPECT_EQ(t.lookup(1, 10), 200u);
}

TEST(Tlb, Shootdown)
{
    Tlb t(4);
    t.insert(0, 10, 100);
    t.invalidate(0, 10);
    EXPECT_EQ(t.lookup(0, 10), invalidPage);
}

} // namespace
} // namespace ptm
