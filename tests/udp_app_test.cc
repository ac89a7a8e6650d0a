// CBR pacing tests. UdpCbrSource runs one token-bucket loop; a burst of 1
// (burst_window zero or at most one interval) is the per-packet schedule.
// Every expectation is checked against the closed-form CBR tick instants,
// start + k * interval while < stop, with Stop()/Resume() epochs applied:
// the per-packet schedule must emit at exactly those instants, the bucket
// must emit exactly as many packets and bytes, each no earlier than its
// tick and less than one burst period late. Plus a scenario-level AP-outage
// smoke: bucket pacing under the fault engine must survive the outage and
// recover.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/apps/udp_app.h"
#include "src/scenario/download_scenario.h"

namespace hacksim {
namespace {

constexpr SimTime kInterval = SimTime::Millis(1);
constexpr uint32_t kPayload = 1472;

struct SourceUnderTest {
  SourceUnderTest(Scheduler* sched, UdpCbrSource::Config cfg)
      : src(sched, cfg,
            FiveTuple{Ipv4Address(1), Ipv4Address(2), 7, 9, kIpProtoUdp},
            [this, sched](Packet p) {
              send_times.push_back(sched->Now());
              bytes += p.payload_bytes();
            }) {}

  std::vector<SimTime> send_times;
  uint64_t bytes = 0;
  UdpCbrSource src;
};

UdpCbrSource::Config BaseCfg() {
  UdpCbrSource::Config cfg;
  cfg.rate_bps = 11'776'000;  // 1472 B payload every 1 ms
  cfg.payload_bytes = kPayload;
  return cfg;
}

// The closed-form CBR schedule: from + k * kInterval while < stop.
std::vector<SimTime> Ticks(SimTime from, SimTime stop) {
  std::vector<SimTime> ticks;
  for (SimTime t = from; t < stop; t = t + kInterval) {
    ticks.push_back(t);
  }
  return ticks;
}

std::vector<SimTime> Concat(std::vector<SimTime> a,
                            const std::vector<SimTime>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// The bucket releases tick k no earlier than its instant and less than one
// refill period after it (late accrual).
void ExpectLateAccrual(const std::vector<SimTime>& sent,
                       const std::vector<SimTime>& ticks, SimTime period) {
  ASSERT_EQ(sent.size(), ticks.size());
  for (size_t k = 0; k < ticks.size(); ++k) {
    EXPECT_GE(sent[k], ticks[k]) << "tick " << k;
    EXPECT_LT(sent[k] - ticks[k], period) << "tick " << k;
  }
}

// A finite stop must flush the bucket's tail exactly: every tick before the
// stop instant is released, including the one in the last partial window.
TEST(TokenBucketTest, ByteTotalsMatchClosedFormThroughConfiguredStop) {
  Scheduler sched;
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Millis(100) + SimTime::Micros(300);  // mid-tick
  SourceUnderTest per_packet(&sched, cfg);
  cfg.burst_window = SimTime::Millis(16);
  SourceUnderTest bucket(&sched, cfg);

  per_packet.src.Start();
  bucket.src.Start();
  sched.RunUntil(SimTime::Millis(200));

  // Ticks at 0..100 ms inclusive: 101 packets either way.
  std::vector<SimTime> ticks = Ticks(SimTime::Zero(), cfg.stop);
  EXPECT_EQ(ticks.size(), 101u);
  EXPECT_EQ(per_packet.send_times, ticks);
  EXPECT_EQ(bucket.send_times.size(), ticks.size());
  EXPECT_EQ(bucket.bytes, ticks.size() * kPayload);
  EXPECT_EQ(bucket.src.packets_sent(), ticks.size());
  ExpectLateAccrual(bucket.send_times, ticks, cfg.burst_window);
}

// Stop() mid-window must release the ticks accrued since the last refill,
// and a Resume must restart cleanly on a fresh epoch, stranding the old
// refill.
TEST(TokenBucketTest, StopFlushesAccruedAndResumeStartsFreshEpoch) {
  Scheduler sched;
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Seconds(10);  // run "forever"; Stop() cuts it
  SourceUnderTest per_packet(&sched, cfg);
  cfg.burst_window = SimTime::Millis(16);
  SourceUnderTest bucket(&sched, cfg);

  per_packet.src.Start();
  bucket.src.Start();
  // Crash at t=50.5 ms, mid-tick and mid-window: ticks 0..50 ms happened.
  SimTime crash = SimTime::Millis(50) + SimTime::Micros(500);
  sched.RunUntil(crash);
  per_packet.src.Stop();
  bucket.src.Stop();
  std::vector<SimTime> before = Ticks(SimTime::Zero(), crash);
  EXPECT_EQ(before.size(), 51u);
  EXPECT_EQ(per_packet.send_times, before);
  EXPECT_EQ(bucket.send_times.size(), 51u);
  // Dead window: the stranded refill (old epoch) must emit nothing.
  sched.RunUntil(SimTime::Millis(70));
  EXPECT_EQ(bucket.send_times.size(), 51u);

  // Rejoin at 80 ms, final stop at 120 ms: ticks 80..119 ms (the tick at
  // the stop instant dies).
  per_packet.src.Resume(SimTime::Millis(80), SimTime::Millis(120));
  bucket.src.Resume(SimTime::Millis(80), SimTime::Millis(120));
  sched.RunUntil(SimTime::Millis(200));
  std::vector<SimTime> ticks =
      Concat(before, Ticks(SimTime::Millis(80), SimTime::Millis(120)));
  EXPECT_EQ(ticks.size(), 91u);
  EXPECT_EQ(per_packet.send_times, ticks);
  EXPECT_EQ(bucket.send_times.size(), 91u);
  EXPECT_EQ(bucket.bytes, ticks.size() * kPayload);
  EXPECT_EQ(per_packet.bytes, ticks.size() * kPayload);
  ExpectLateAccrual(bucket.send_times, ticks, cfg.burst_window);
}

// A window no longer than one interval is a burst of 1: emission at
// exactly the tick instants, like the default zero window.
TEST(TokenBucketTest, SubIntervalWindowEmitsAtEveryTick) {
  Scheduler sched;
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Millis(20);
  SourceUnderTest per_packet(&sched, cfg);
  cfg.burst_window = SimTime::Micros(500);  // < the 1 ms interval
  SourceUnderTest degenerate(&sched, cfg);

  per_packet.src.Start();
  degenerate.src.Start();
  sched.RunUntil(SimTime::Millis(40));
  std::vector<SimTime> ticks = Ticks(SimTime::Zero(), cfg.stop);
  EXPECT_EQ(per_packet.send_times, ticks);
  EXPECT_EQ(degenerate.send_times, ticks);
}

// The per-refill burst is capped: a huge window still releases at most
// kMaxBurstPackets per event, and the totals still match the tick count.
TEST(TokenBucketTest, BurstCapBoundsReleaseAndPreservesTotals) {
  Scheduler sched;
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Millis(100);
  SourceUnderTest per_packet(&sched, cfg);
  cfg.burst_window = SimTime::Millis(200);  // fits 200 ticks
  SourceUnderTest bucket(&sched, cfg);

  per_packet.src.Start();
  bucket.src.Start();
  sched.RunUntil(SimTime::Millis(300));
  std::vector<SimTime> ticks = Ticks(SimTime::Zero(), cfg.stop);
  EXPECT_EQ(ticks.size(), 100u);
  EXPECT_EQ(per_packet.send_times, ticks);
  EXPECT_EQ(bucket.send_times.size(), 100u);
  // No single instant may release more than the cap.
  size_t same_instant = 1, worst = 1;
  for (size_t i = 1; i < bucket.send_times.size(); ++i) {
    same_instant =
        bucket.send_times[i] == bucket.send_times[i - 1] ? same_instant + 1
                                                         : 1;
    worst = std::max(worst, same_instant);
  }
  EXPECT_LE(worst, UdpCbrSource::kMaxBurstPackets);
  ExpectLateAccrual(bucket.send_times, ticks,
                    kInterval * static_cast<int>(
                                    UdpCbrSource::kMaxBurstPackets));
}

// Burst of 1 costs exactly one scheduler event per tick: the schedule ends
// with its last emission instead of arming a no-op step past the stop, and
// a schedule with no tick before its stop arms nothing at all.
TEST(TokenBucketTest, PerPacketEventsMatchClosedFormTickCount) {
  {
    // Stop mid-tick, horizon well past it.
    Scheduler sched;
    UdpCbrSource::Config cfg = BaseCfg();
    cfg.stop = SimTime::Millis(20) + SimTime::Micros(500);
    SourceUnderTest s(&sched, cfg);
    s.src.Start();
    sched.RunUntil(SimTime::Millis(40));
    EXPECT_EQ(sched.events_executed(), Ticks(SimTime::Zero(), cfg.stop).size());
    EXPECT_EQ(sched.events_executed(), 21u);
    EXPECT_EQ(sched.pending_events(), 0u);
  }
  {
    // Stop on a tick instant, horizon equal to the stop (RunUntil is
    // inclusive, so an armed step at the stop would fire).
    Scheduler sched;
    UdpCbrSource::Config cfg = BaseCfg();
    cfg.start = SimTime::Millis(3);
    cfg.stop = SimTime::Millis(20);
    SourceUnderTest s(&sched, cfg);
    s.src.Start();
    sched.RunUntil(cfg.stop);
    EXPECT_EQ(sched.events_executed(), Ticks(cfg.start, cfg.stop).size());
    EXPECT_EQ(sched.events_executed(), 17u);
    EXPECT_EQ(sched.pending_events(), 0u);
  }
  {
    // Start at the stop: no tick, no event.
    Scheduler sched;
    UdpCbrSource::Config cfg = BaseCfg();
    cfg.start = SimTime::Millis(5);
    cfg.stop = SimTime::Millis(5);
    SourceUnderTest s(&sched, cfg);
    s.src.Start();
    sched.RunUntil(SimTime::Millis(10));
    EXPECT_EQ(sched.events_executed(), 0u);
    EXPECT_TRUE(s.send_times.empty());
  }
}

// Scenario smoke: bucket-paced uplink sources under an AP outage. The fault
// engine Stop()s every source at the crash and Resume()s on recovery — the
// epoch machinery the unit tests above pin — and the cell must deliver
// traffic both overall and after the AP comes back.
TEST(TokenBucketTest, ApOutageScenarioRecoversWithBucketPacing) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = 5;
  c.proto = TransportProto::kUdp;
  c.hack = HackVariant::kOff;
  c.upload = true;
  c.udp_rate_bps = 5e7;
  c.udp_burst_window = SimTime::Millis(16);
  c.duration = SimTime::Millis(600);
  c.start_stagger = SimTime::Millis(5);
  c.seed = 7;
  c.fault_plan = FaultPlan::ApOutage(c.duration);
  ScenarioResult r = RunScenario(c);

  EXPECT_EQ(r.crc_failures, 0u);
  uint64_t bytes = 0;
  for (const auto& cl : r.clients) {
    bytes += cl.bytes_delivered;
  }
  EXPECT_GT(bytes, 0u);
  EXPECT_GT(r.post_fault_goodput_mbps, 0.0)
      << "the cell must deliver again after the AP restart";
}

}  // namespace
}  // namespace hacksim
