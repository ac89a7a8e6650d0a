#include "layer_drivers.h"

#include <algorithm>
#include <cmath>

#include "src/net/address.h"
#include "src/phy80211/wifi_mode.h"
#include "src/tcp/tcp_common.h"
#include "src/util/bitio.h"

namespace perfbench {

using hacksim::EventClass;
using hacksim::EventId;
using hacksim::FiveTuple;
using hacksim::Ipv4Address;
using hacksim::Packet;
using hacksim::SimTime;
using hacksim::TcpHeader;

// --- scheduler ---------------------------------------------------------------

SchedulerDriver::SchedulerDriver(SchedulerShape shape, uint64_t seed)
    : shape_(shape), rng_(seed) {}

void SchedulerDriver::Prepare(int ops) {
  steps_.clear();
  steps_.reserve(static_cast<size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    steps_.push_back(Step{
        static_cast<uint32_t>(
            rng_.NextBounded(static_cast<uint64_t>(shape_.pending))),
        rng_.NextBool(shape_.cancel_share),
        1 + static_cast<int64_t>(rng_.NextBounded(
                static_cast<uint64_t>(shape_.max_delay_ns)))});
  }
}

uint64_t SchedulerDriver::Run() {
  hacksim::Scheduler sched;
  uint64_t fired = 0;
  std::vector<EventId> live(static_cast<size_t>(shape_.pending));
  for (size_t i = 0; i < live.size(); ++i) {
    live[i] = sched.ScheduleIn(
        SimTime::Nanos(1 + static_cast<int64_t>(i) * shape_.max_delay_ns /
                               shape_.pending),
        [&fired]() { ++fired; }, EventClass::kMacTimer);
  }
  // Advancing by (1 - cancel share) * horizon / pending per step fires, on
  // average, the events the cancels leave behind, so the pending population
  // stays near shape_.pending.
  int64_t advance = std::max<int64_t>(
      1, static_cast<int64_t>((1.0 - shape_.cancel_share) *
                              static_cast<double>(shape_.max_delay_ns) /
                              shape_.pending));
  uint64_t cancelled = 0;
  for (const Step& step : steps_) {
    EventId& id = live[step.slot];
    if (step.cancel && sched.IsPending(id)) {
      sched.Cancel(id);
      ++cancelled;
    }
    id = sched.ScheduleIn(SimTime::Nanos(step.delay_ns),
                          [&fired]() { ++fired; }, EventClass::kMacTimer);
    sched.RunUntil(sched.Now() + SimTime::Nanos(advance));
  }
  sched.Run();
  scheduled_ = live.size() + steps_.size();
  retired_ = fired + cancelled;
  return scheduled_;
}

bool SchedulerDriver::Verify() const {
  // Every scheduled event either fired or was cancelled while pending.
  return scheduled_ > 0 && retired_ == scheduled_;
}

// --- channel fan-out ---------------------------------------------------------

class TransmitDriver::CountingListener : public hacksim::WifiPhyListener {
 public:
  void OnPpduReceived(const hacksim::Ppdu& ppdu,
                      const std::vector<bool>& mpdu_ok) override {
    ++received;
    if (std::count(mpdu_ok.begin(), mpdu_ok.end(), true) ==
        static_cast<std::ptrdiff_t>(ppdu.mpdus.size())) {
      ++intact;
    }
  }
  void OnRxCorrupted() override { ++corrupted; }
  void OnTxEnd(const hacksim::Ppdu&) override { ++tx_ends; }
  void OnCcaBusy() override {}
  void OnCcaIdle() override {}

  uint64_t received = 0;
  uint64_t intact = 0;
  uint64_t corrupted = 0;
  uint64_t tx_ends = 0;
};

TransmitDriver::TransmitDriver(int receivers) {
  constexpr double kPi = 3.14159265358979323846;
  for (int i = 0; i <= receivers; ++i) {
    auto phy = std::make_unique<hacksim::WifiPhy>(
        &scheduler_, hacksim::Random(static_cast<uint64_t>(i) + 1));
    // Sender at the AP's spot, receivers on a 5 m ring (the paper-fig10
    // layout; the fixed-loss channel uses distance only for delay).
    double angle = 2.0 * kPi * i / std::max(receivers, 1);
    phy->set_position(i == 0 ? hacksim::Position{0.0, 0.0}
                             : hacksim::Position{5.0 * std::cos(angle),
                                                 5.0 * std::sin(angle)});
    auto listener = std::make_unique<CountingListener>();
    phy->set_listener(listener.get());
    phy->AttachTo(&channel_);
    phys_.push_back(std::move(phy));
    listeners_.push_back(std::move(listener));
  }
  // A 16-MPDU A-MPDU of full TCP segments, addressed to receiver 1.
  prototype_.aggregated = true;
  prototype_.mode = hacksim::ModeForRate(hacksim::Modes80211n(), 150.0);
  for (uint16_t s = 0; s < 16; ++s) {
    TcpHeader tcp;
    tcp.src_port = 5000;
    tcp.dst_port = 6000;
    tcp.seq = 1 + s * 1460u;
    tcp.ack = 1;
    tcp.flag_ack = true;
    tcp.window = 2048;
    hacksim::WifiFrame frame;
    frame.type = hacksim::WifiFrameType::kData;
    frame.ta = hacksim::MacAddress::ForStation(0);
    frame.ra = hacksim::MacAddress::ForStation(1);
    frame.seq = s;
    frame.packet = Packet::MakeTcp(Ipv4Address::FromOctets(10, 0, 0, 1),
                                   Ipv4Address::FromOctets(10, 0, 2, 1), tcp,
                                   1460);
    prototype_.mpdus.push_back(std::move(frame));
  }
}

TransmitDriver::~TransmitDriver() = default;

void TransmitDriver::Prepare(int ppdus) {
  batch_.assign(static_cast<size_t>(ppdus), prototype_);
}

uint64_t TransmitDriver::Run() {
  hacksim::WifiPhy* sender = phys_.front().get();
  for (hacksim::Ppdu& ppdu : batch_) {
    sender->Send(std::move(ppdu));
    scheduler_.Run();
  }
  sent_ += batch_.size();
  return batch_.size();
}

bool TransmitDriver::Verify() const {
  // The addressed receiver decoded every MPDU of every PPDU, nobody saw a
  // collision, and the sender heard each of its transmissions end.
  if (listeners_.front()->tx_ends != sent_ || listeners_[1]->intact != sent_) {
    return false;
  }
  return std::all_of(listeners_.begin(), listeners_.end(),
                     [](const auto& l) { return l->corrupted == 0; });
}

// --- ROHC ----------------------------------------------------------------------

RohcDriver::RohcDriver(int contexts) : contexts_(static_cast<size_t>(contexts)) {
  for (size_t i = 0; i < contexts_.size(); ++i) {
    Context& ctx = contexts_[i];
    ctx.flow = FiveTuple(
        Ipv4Address::FromOctets(10, 0, 2, static_cast<uint8_t>(1 + i % 250)),
        Ipv4Address::FromOctets(10, 0, 0, 1),
        static_cast<uint16_t>(6000 + i), 5000);
    ctx.ack = 1000 + static_cast<uint32_t>(i);
    ctx.tsval = 100;
    // Bootstrap as HACK does: the decompressor learns the flow from a
    // vanilla ACK, and the first compressed record is a refresh. Both are
    // applied here so the timed stream is steady-state deltas.
    ctx.decompressor.NoteVanillaAck(MakeAck(ctx));
    ctx.ack += 2920;
    ++ctx.tsval;
    auto first = ctx.compressor.Compress(MakeAck(ctx));
    hacksim::ByteReader reader(first.bytes);
    auto record = hacksim::CompressedAckRecord::Deserialize(reader);
    ok_ = ok_ && record.has_value() &&
          ctx.decompressor.Decompress(*record).status ==
              hacksim::RohcDecompressor::Status::kOk;
  }
}

Packet RohcDriver::MakeAck(const Context& ctx) {
  TcpHeader tcp;
  tcp.src_port = ctx.flow.src_port;
  tcp.dst_port = ctx.flow.dst_port;
  tcp.seq = 1;
  tcp.ack = ctx.ack;
  tcp.flag_ack = true;
  tcp.window = 2048;
  tcp.timestamps = hacksim::TcpTimestamps{ctx.tsval, ctx.tsval - 3};
  return Packet::MakeTcp(ctx.flow.src_ip, ctx.flow.dst_ip, tcp, 0);
}

void RohcDriver::Prepare(int acks) {
  batch_context_.clear();
  batch_ack_.clear();
  batch_packets_.clear();
  for (int j = 0; j < acks; ++j) {
    size_t c = cursor_++ % contexts_.size();
    Context& ctx = contexts_[c];
    ctx.ack += 2920;
    ++ctx.tsval;
    batch_context_.push_back(c);
    batch_ack_.push_back(ctx.ack);
    batch_packets_.push_back(MakeAck(ctx));
  }
  compressed_.assign(batch_packets_.size(), {});
  decompressed_.assign(batch_packets_.size(), {});
}

uint64_t RohcDriver::RunCompress() {
  for (size_t j = 0; j < batch_packets_.size(); ++j) {
    compressed_[j] =
        contexts_[batch_context_[j]].compressor.Compress(batch_packets_[j]);
  }
  return batch_packets_.size();
}

void RohcDriver::PrepareDecompress() {
  records_.clear();
  for (const auto& result : compressed_) {
    hacksim::ByteReader reader(result.bytes);
    auto record = hacksim::CompressedAckRecord::Deserialize(reader);
    ok_ = ok_ && !result.bytes.empty() && record.has_value();
    records_.push_back(record.value_or(hacksim::CompressedAckRecord{}));
  }
}

uint64_t RohcDriver::RunDecompress() {
  for (size_t j = 0; j < records_.size(); ++j) {
    decompressed_[j] =
        contexts_[batch_context_[j]].decompressor.Decompress(records_[j]);
  }
  return records_.size();
}

bool RohcDriver::Verify() const {
  if (!ok_ || records_.size() != batch_ack_.size()) {
    return false;
  }
  for (size_t j = 0; j < decompressed_.size(); ++j) {
    const auto& r = decompressed_[j];
    if (r.status != hacksim::RohcDecompressor::Status::kOk ||
        !r.packet.has_value() || r.packet->tcp().ack != batch_ack_[j]) {
      return false;
    }
  }
  return true;
}

// --- TCP -------------------------------------------------------------------------

TcpAckDriver::TcpAckDriver() {
  const Ipv4Address server = Ipv4Address::FromOctets(10, 0, 0, 1);
  const Ipv4Address client = Ipv4Address::FromOctets(10, 0, 2, 1);
  sender_ = std::make_unique<hacksim::TcpSender>(
      &scheduler_, hacksim::TcpConfig{}, FiveTuple(server, client, 5000, 6000),
      [this](Packet p) {
        const TcpHeader& tcp = p.tcp();
        if (tcp.flag_syn) {
          iss_ = tcp.seq;
          syn_seen_ = true;
        } else {
          snd_nxt_seen_ = std::max(snd_nxt_seen_, tcp.seq + p.payload_bytes());
        }
      },
      /*bytes_to_send=*/0);
  sender_->Start();
  scheduler_.RunUntil(SimTime::Millis(1));
  TcpHeader synack;
  synack.src_port = 6000;
  synack.dst_port = 5000;
  synack.seq = 7000;
  synack.ack = iss_ + 1;
  synack.flag_syn = true;
  synack.flag_ack = true;
  synack.window = 65535;
  synack.window_scale = 7;
  synack.sack_permitted = true;
  synack.timestamps = hacksim::TcpTimestamps{tsval_++, 0};
  sender_->OnPacket(Packet::MakeTcp(client, server, synack, 0));
  next_ack_ = iss_ + 1;
  next_at_ = SimTime::Millis(10);
  if (!syn_seen_ || !sender_->established()) {
    acks_fed_ = UINT64_MAX;  // Verify fails
  }
}

void TcpAckDriver::Prepare(int acks) {
  const Ipv4Address server = Ipv4Address::FromOctets(10, 0, 0, 1);
  const Ipv4Address client = Ipv4Address::FromOctets(10, 0, 2, 1);
  batch_.clear();
  for (int k = 0; k < acks; ++k) {
    // The sender keeps at least its initial window in flight, so an ACK two
    // segments past the last one never overtakes snd_nxt.
    next_ack_ += 2 * 1460;
    next_at_ += SimTime::Micros(100);
    TcpHeader ack;
    ack.src_port = 6000;
    ack.dst_port = 5000;
    ack.seq = 7001;
    ack.ack = next_ack_;
    ack.flag_ack = true;
    ack.window = 2048;  // << 7 = the 256 KB receive window
    ack.timestamps = hacksim::TcpTimestamps{
        tsval_++, hacksim::TsClock(next_at_ - SimTime::Millis(2))};
    batch_.emplace_back(next_at_, Packet::MakeTcp(client, server, ack, 0));
  }
}

uint64_t TcpAckDriver::Run() {
  for (const auto& [at, packet] : batch_) {
    scheduler_.RunUntil(at);
    sender_->OnPacket(packet);
  }
  acks_fed_ += batch_.size();
  return batch_.size();
}

bool TcpAckDriver::Verify() const {
  const hacksim::TcpSenderStats& s = sender_->stats();
  return s.acks_received == acks_fed_ && s.dupacks_received == 0 &&
         s.timeouts == 0 && s.retransmissions == 0 &&
         sender_->bytes_acked() == acks_fed_ * 2 * 1460 &&
         next_ack_ <= snd_nxt_seen_;
}

}  // namespace perfbench
