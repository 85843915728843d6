/**
 * @file
 * Model-check of the MergeBuffer against a reference memory model:
 * random streams of uncached stores/loads/rmw/membars must preserve
 * (a) per-address program order of stores as seen by the device,
 * (b) load values (a load returns the most recent value written or
 *     loaded for its address), and
 * (c) the guarantee that after a membar, every prior store has reached
 *     the device and no stale read-buffer entry survives.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/bus.hh"
#include "mem/merge_buffer.hh"
#include "util/random.hh"

namespace uldma {
namespace {

/** Device that acts as a plain word store and logs every access. */
class WordDevice : public BusDevice
{
  public:
    explicit WordDevice(AddrRange range) : range_(range) {}

    const std::string &deviceName() const override { return name_; }
    std::vector<AddrRange> deviceRanges() const override
    {
        return {range_};
    }

    Tick
    access(Packet &pkt) override
    {
        log.push_back(pkt);
        if (pkt.rmw) {
            const std::uint64_t old = words[pkt.paddr];
            words[pkt.paddr] = pkt.data;
            pkt.data = old;
        } else if (pkt.isRead()) {
            pkt.data = words[pkt.paddr];
        } else {
            words[pkt.paddr] = pkt.data;
        }
        return 0;
    }

    std::map<Addr, std::uint64_t> words;
    std::vector<Packet> log;

  private:
    std::string name_ = "words";
    AddrRange range_;
};

class MergeModel : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MergeModel, RandomStreamAgainstReference)
{
    Random rng(GetParam());
    EventQueue eq;
    Bus bus(eq, "bus", BusParams{});
    WordDevice dev(AddrRange(0x0, 0x10000));
    bus.attach(&dev);

    MergeBufferParams params;
    params.capacity = 1 + rng.below(4);
    params.readBufferEntries = rng.below(4);
    params.collapseStores = rng.chance(0.7);
    params.mergeLoads = rng.chance(0.7);
    MergeBuffer wb("wb", bus, params);

    // Reference model: the architectural value each address should
    // hold from the program's perspective.
    std::map<Addr, std::uint64_t> model;

    const Addr addrs[] = {0x100, 0x108, 0x110, 0x118};
    for (int op = 0; op < 2000; ++op) {
        const Addr a = addrs[rng.below(std::size(addrs))];
        const double roll = rng.nextDouble();
        if (roll < 0.45) {
            const std::uint64_t v = rng.next64() & 0xFFFF;
            wb.store(Packet::makeWrite(a, v));
            model[a] = v;
        } else if (roll < 0.85) {
            Packet pkt = Packet::makeRead(a);
            wb.load(pkt);
            // (b): the program always reads its own latest value.
            ASSERT_EQ(pkt.data, model[a]) << "op " << op;
        } else if (roll < 0.95) {
            wb.membar();
            // (c): all stores drained.
            ASSERT_FALSE(wb.hasPendingStores());
            for (const auto &[addr, value] : model) {
                ASSERT_EQ(dev.words.count(addr) ? dev.words[addr]
                                                : 0u,
                          value)
                    << "device state stale after membar, op " << op;
            }
        } else {
            Packet pkt = Packet::makeWrite(a, rng.next64() & 0xFFFF);
            pkt.rmw = true;
            const std::uint64_t newv = pkt.data;
            wb.rmw(pkt);
            ASSERT_EQ(pkt.data, model[a]) << "rmw old value, op " << op;
            model[a] = newv;
        }
    }

    // (a): after a final drain the device's state equals the
    // architectural model for every address — collapsing may have
    // elided intermediate stores, but never reordered survivors.
    wb.membar();
    for (const auto &[addr, value] : model)
        ASSERT_EQ(dev.words[addr], value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeModel,
                         ::testing::Range<std::uint64_t>(1, 16));

} // namespace
} // namespace uldma
