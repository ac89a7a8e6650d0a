#include "src/scenario/download_scenario.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/apps/udp_app.h"
#include "src/node/node.h"
#include "src/util/logging.h"

namespace hacksim {
namespace {

constexpr uint16_t kServerPortBase = 5000;
constexpr uint16_t kClientPortBase = 6000;

struct ClientEndpoint {
  std::unique_ptr<Node> node;
  std::unique_ptr<WifiNetDevice> device;
  // The station's TCP flow, whichever node each end runs on.
  std::unique_ptr<TcpReceiver> tcp_rx;
  std::unique_ptr<TcpSender> tcp_tx;
  bool tcp_started = false;
  // The station's UDP-ish flow: its own on UDP scenarios, the background
  // flow on TCP+mix ones.
  std::unique_ptr<PacketSource> source;
  std::unique_ptr<UdpSink> udp_sink;
  GoodputTracker tracker;
  SimTime completion;
  // Jitter chain for the TCP data path (mirrors UdpSink's: consecutive
  // same-endpoint delay deltas).
  SimTime tcp_last_delay;
  bool tcp_has_delay = false;
};

// One direction of a station's flow: the sending and receiving node and
// port.
struct FlowEnds {
  Node* tx;
  uint16_t tx_port;
  Node* rx;
  uint16_t rx_port;

  FiveTuple Tuple(uint8_t proto) const {
    return {tx->address(), rx->address(), tx_port, rx_port, proto};
  }
};

std::unique_ptr<PacketSource> MakeSource(Scheduler* scheduler,
                                         const UdpCbrSource::Config& cfg,
                                         FiveTuple flow,
                                         std::function<void(Packet)> send) {
  return std::make_unique<UdpCbrSource>(scheduler, cfg, flow, std::move(send));
}

std::unique_ptr<PacketSource> MakeSource(Scheduler* scheduler,
                                         const TrafficSource::Config& cfg,
                                         FiveTuple flow,
                                         std::function<void(Packet)> send) {
  return std::make_unique<TrafficSource>(scheduler, cfg, flow,
                                         std::move(send));
}

std::span<const WifiMode> ModeTable(WifiStandard standard) {
  return standard == WifiStandard::k80211a ? Modes80211a() : Modes80211n();
}

constexpr double kPi = 3.14159265358979;

// Client placement under the configured topology. kRing reproduces the
// historical formula exactly; the other layouts exist for the geometric
// channel. `placement_rng` is only drawn from for kUniformDisk, so legacy
// configurations consume no extra randomness.
Position PlaceClient(const ScenarioConfig& config, const ClientSpec& spec,
                     int i, Random& placement_rng) {
  switch (config.topology) {
    case Topology::kRing: {
      double angle = 2.0 * kPi * i / std::max(1, config.n_clients);
      return Position{spec.distance_m * std::cos(angle),
                      spec.distance_m * std::sin(angle)};
    }
    case Topology::kUniformDisk: {
      // Uniform over the disk, clamped away from the AP's exact position.
      double r = std::max(
          1.0, kCellRadiusM * std::sqrt(placement_rng.NextDouble()));
      double theta = 2.0 * kPi * placement_rng.NextDouble();
      return Position{r * std::cos(theta), r * std::sin(theta)};
    }
    case Topology::kTwoClusterHidden: {
      // Client i joins cluster i % 2 (left / right of the AP); within the
      // cluster, a deterministic grid of fixed extent so cluster geometry
      // does not degrade as the cell grows.
      int cluster = i % 2;
      double sign = cluster == 0 ? -1.0 : 1.0;
      int j = i / 2;
      int per_cluster = (config.n_clients + 1 - cluster) / 2;
      int k = static_cast<int>(
          std::ceil(std::sqrt(static_cast<double>(per_cluster))));
      double step = k > 1 ? kClusterSpreadM / (k - 1) : 0.0;
      double half = kClusterSpreadM / 2.0;
      double ox = k > 1 ? (j % k) * step - half : 0.0;
      double oy = k > 1 ? (j / k) * step - half : 0.0;
      return Position{sign * kClusterDistanceM + ox, oy};
    }
  }
  return Position{};
}

}  // namespace

ScenarioResult RunScenario(const ScenarioConfig& config) {
  CHECK(config.proto == TransportProto::kUdp || !config.upload ||
        config.traffic_mix.empty())
      << "traffic_mix supports UDP or TCP download, not TCP upload";
  Scheduler scheduler;
  Random root_rng(config.seed);

  WifiMode data_mode =
      ModeForRate(ModeTable(config.standard), config.data_rate_mbps);

  // --- addresses -------------------------------------------------------------
  Ipv4Address server_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  Ipv4Address ap_ip = Ipv4Address::FromOctets(10, 0, 1, 1);
  auto client_ip = [](int i) {
    return Ipv4Address::FromOctets(10, 0, 2, static_cast<uint8_t>(i + 1));
  };
  MacAddress ap_mac_addr = MacAddress::ForStation(0);
  auto client_mac_addr = [](int i) {
    return MacAddress::ForStation(static_cast<uint32_t>(i + 1));
  };

  // --- channel / wired link ----------------------------------------------------
  WirelessChannel channel(&scheduler, config.channel_delivery);
  // The backhaul keeps PointToPointLink's defaults: 500 Mbps, 1 ms.
  PointToPointLink wired(&scheduler, PointToPointLink::Config{});

  // --- MAC configs ----------------------------------------------------------------
  WifiMacConfig ap_mac_cfg;
  ap_mac_cfg.standard = config.standard;
  ap_mac_cfg.data_mode = data_mode;
  ap_mac_cfg.per_dest_queue_limit = config.ap_queue_per_client;
  ap_mac_cfg.txop_limit = config.txop_limit;
  ap_mac_cfg.sora_ack_quirk = config.sora_ack_quirk;
  ap_mac_cfg.rts_threshold = config.rts_threshold;
  ap_mac_cfg.legacy_nav_probe_events = config.legacy_nav_probe_events;
  ap_mac_cfg.edca_enabled = config.edca_enabled;
  ap_mac_cfg.enable_rate_adaptation = config.rate_adaptation;
  if (config.hack != HackVariant::kOff) {
    ap_mac_cfg.max_hack_payload_bytes = config.hack_config.max_payload_bytes;
  }
  if (!config.fault_plan.empty()) {
    // Bounded give-up on unreachable peers (crashed stations, AP outages).
    // Off on legacy paths: hidden-terminal rows have give-ups on live peers
    // and flushing those would change pinned outputs.
    ap_mac_cfg.dead_peer_flush_threshold = 2;
  }
  WifiMacConfig client_mac_cfg = ap_mac_cfg;
  client_mac_cfg.per_dest_queue_limit =
      std::max<size_t>(config.ap_queue_per_client, 1000);

  // --- AP ---------------------------------------------------------------------------
  auto ap_node = std::make_unique<Node>(ap_ip);
  auto ap_device = std::make_unique<WifiNetDevice>(
      &scheduler, &channel, ap_mac_addr, ap_mac_cfg, root_rng.Fork());
  ap_device->phy().set_position(Position{0.0, 0.0});
  if (config.hack != HackVariant::kOff) {
    HackAgentConfig hc = config.hack_config;
    hc.variant = config.hack;
    ap_device->EnableHack(hc);
  }
  ap_node->AttachWifi(ap_device.get());
  ap_node->AttachP2p(&wired, 1);
  ap_node->SetDefaultRoute(Node::Egress::kP2p, MacAddress());

  // --- server -----------------------------------------------------------------------
  auto server_node = std::make_unique<Node>(server_ip);
  server_node->AttachP2p(&wired, 0);
  server_node->SetDefaultRoute(Node::Egress::kP2p, MacAddress());

  // --- clients ----------------------------------------------------------------------
  std::vector<ClientSpec> specs = config.clients;
  specs.resize(static_cast<size_t>(config.n_clients));
  for (int i = 0; i < config.n_clients; ++i) {
    if (specs[i].start_offset.IsZero()) {
      specs[i].start_offset = config.start_stagger * i;
    }
  }

  std::vector<ClientEndpoint> clients(config.n_clients);
  // Enqueue→delivery latency over every UDP sink, keyed by each packet's
  // DSCP-derived AC. Pure recording (no events, no RNG), so wiring it
  // unconditionally cannot perturb legacy runs.
  LatencyRecorder latency;
  // TCP data segments get the same treatment at the receiving handler
  // (UdpSink's convention: per-packet delay keyed by the DSCP-derived AC,
  // jitter from consecutive same-endpoint deltas). Recording-only as well.
  auto record_tcp_latency = [&scheduler, &latency](ClientEndpoint& ep,
                                                   const Packet& p) {
    if (p.payload_bytes() == 0) {
      return;
    }
    uint8_t ac = p.has_ip() ? AcForTos(p.ip().tos) : kAcBe;
    SimTime delay = scheduler.Now() - p.created_at();
    latency.Record(ac, delay);
    if (ep.tcp_has_delay) {
      SimTime delta = delay > ep.tcp_last_delay ? delay - ep.tcp_last_delay
                                                : ep.tcp_last_delay - delay;
      latency.RecordJitter(ac, delta);
    }
    ep.tcp_last_delay = delay;
    ep.tcp_has_delay = true;
  };

  // Only the disk layout draws placement randomness; forking lazily keeps
  // every legacy configuration's RNG streams untouched.
  Random placement_rng(0);
  if (config.topology == Topology::kUniformDisk) {
    placement_rng = root_rng.Fork();
  }

  // --- fault plan -----------------------------------------------------------
  FaultPlan plan = config.fault_plan;
  plan.SortByTime();
  const bool faults_enabled = !plan.empty();
  if (faults_enabled) {
    CHECK_LT(plan.MaxStation(), config.n_clients)
        << "fault plan references a station index beyond n_clients";
  }
  // present[i]: station i is currently associated and radio-on. A station
  // whose first plan event is a join starts absent and is brought up by that
  // event. Devices and RNG forks are created for every client regardless,
  // so the per-client random streams never depend on the plan.
  std::vector<char> present(static_cast<size_t>(config.n_clients), 1);
  if (faults_enabled) {
    for (int i = 0; i < config.n_clients; ++i) {
      if (plan.StartsAbsent(i)) {
        present[static_cast<size_t>(i)] = 0;
      }
    }
  }
  // Interference bursts need a gate on every PHY. Wrapping only when the
  // plan actually contains bursts keeps every other configuration's loss
  // models — and their RNG draw sequences — untouched.
  std::vector<GatedLossModel*> gated;
  auto install_loss = [&](WifiPhy& phy, std::unique_ptr<LossModel> inner) {
    if (!(faults_enabled && plan.HasBursts())) {
      if (inner != nullptr) {
        phy.set_loss_model(std::move(inner));
      }
      return;
    }
    auto gate = std::make_unique<GatedLossModel>(std::move(inner));
    gated.push_back(gate.get());
    phy.set_loss_model(std::move(gate));
  };

  for (int i = 0; i < config.n_clients; ++i) {
    ClientEndpoint& ep = clients[i];
    ep.node = std::make_unique<Node>(client_ip(i));
    ep.device = std::make_unique<WifiNetDevice>(
        &scheduler, &channel, client_mac_addr(i), client_mac_cfg,
        root_rng.Fork());
    ep.device->phy().set_position(
        PlaceClient(config, specs[i], i, placement_rng));
    std::unique_ptr<LossModel> client_loss;
    if (config.snr.has_value()) {
      client_loss = std::make_unique<SnrLossModel>(*config.snr);
    } else if (specs[i].bernoulli_data_loss > 0.0 ||
               specs[i].bernoulli_control_loss > 0.0) {
      client_loss = std::make_unique<BernoulliLossModel>(
          specs[i].bernoulli_data_loss, specs[i].bernoulli_control_loss);
    }
    install_loss(ep.device->phy(), std::move(client_loss));
    if (config.hack != HackVariant::kOff) {
      HackAgentConfig hc = config.hack_config;
      hc.variant = config.hack;
      ep.device->EnableHack(hc);
    }
    ep.node->AttachWifi(ep.device.get());
    ep.node->SetDefaultRoute(Node::Egress::kWifi, ap_mac_addr);

    // AP routes to this client over the WLAN.
    ap_node->AddRoute(client_ip(i), Node::Egress::kWifi, client_mac_addr(i));

    // Associate both ways so StationIds are dense and deterministic (client
    // i is station i at the AP) before any traffic flows. Stations whose
    // first fault-plan event is a join start absent instead.
    if (present[static_cast<size_t>(i)]) {
      ap_device->mac().Associate(client_mac_addr(i));
      ep.device->mac().Associate(ap_mac_addr);
    }
  }

  // If the AP uses the SNR model for receptions from clients, attach it too
  // (uplink ACKs/data suffer symmetrically).
  std::unique_ptr<LossModel> ap_loss;
  if (config.snr.has_value()) {
    ap_loss = std::make_unique<SnrLossModel>(*config.snr);
  }
  install_loss(ap_device->phy(), std::move(ap_loss));

  // Geometric channel: installed after every PHY is attached and positioned
  // (set_propagation validates that no node sits at the implicit origin).
  if (config.propagation.has_value()) {
    channel.set_propagation(
        std::make_unique<LogDistancePropagation>(*config.propagation));
  }

  // --- flows ------------------------------------------------------------------------
  // The fault engine drives each station's packet source (stopped on crash,
  // resumed on join) and TCP sender (started late for stations that begin
  // absent; established senders ride out the outage on their own
  // retransmit timers).
  int completed = 0;

  // Station i's flow endpoints in the given direction.
  auto flow_ends = [&](int i, bool uplink, uint16_t server_port,
                       uint16_t client_port) {
    Node* client = clients[i].node.get();
    return uplink ? FlowEnds{client, client_port, server_node.get(),
                             server_port}
                  : FlowEnds{server_node.get(), server_port, client,
                             client_port};
  };
  // Wires one UDP-ish flow of station i: the source on the sending node, a
  // latency-recording sink behind the receiving port, and a start gated on
  // the station being present.
  auto wire_udp_flow = [&](int i, const FlowEnds& ends, const auto& src_cfg) {
    ClientEndpoint& ep = clients[i];
    ep.source = MakeSource(
        &scheduler, src_cfg, ends.Tuple(kIpProtoUdp),
        [node = ends.tx](Packet p) { node->Send(std::move(p)); });
    ep.udp_sink = std::make_unique<UdpSink>(&scheduler);
    ep.udp_sink->set_latency_recorder(&latency);
    ends.rx->RegisterHandler(ends.rx_port,
                             [sink = ep.udp_sink.get()](const Packet& p) {
                               sink->OnPacket(p);
                             });
    if (present[static_cast<size_t>(i)]) {
      ep.source->Start();
    }
  };
  // Traffic-model flows draw per-flow seeds from a DeriveRunSeed index
  // namespace of their own (namespace + i), so they never collide with
  // campaign run indices derived from the same base seed.
  auto traffic_config = [&](int i, uint64_t seed_namespace) {
    TrafficSource::Config src_cfg;
    src_cfg.model = ModelForStation(config.traffic_mix, static_cast<size_t>(i),
                                    static_cast<size_t>(config.n_clients));
    src_cfg.start = specs[i].start_offset;
    src_cfg.stop = config.duration;
    src_cfg.seed = DeriveRunSeed(config.seed,
                                 seed_namespace + static_cast<uint64_t>(i));
    src_cfg.rate_scale = config.traffic_rate_scale;
    return src_cfg;
  };

  for (int i = 0; i < config.n_clients; ++i) {
    ClientEndpoint& ep = clients[i];
    FlowEnds ends = flow_ends(i, config.upload,
                              static_cast<uint16_t>(kServerPortBase + i),
                              static_cast<uint16_t>(kClientPortBase + i));

    if (config.proto == TransportProto::kUdp) {
      // Uplink: every client contends for the medium — the dense-cell
      // collision workload RTS/CTS exists for. The sink then lives at the
      // server but stays owned by the client endpoint, so collection is
      // uniform across directions.
      if (!config.traffic_mix.empty()) {
        // Traffic zoo: one modelled flow per client in place of the
        // uniform CBR source (seed namespace 2^32 + i).
        wire_udp_flow(i, ends, traffic_config(i, uint64_t{1} << 32));
      } else {
        UdpCbrSource::Config src_cfg;
        src_cfg.rate_bps = config.udp_rate_bps / config.n_clients;
        src_cfg.start = specs[i].start_offset;
        src_cfg.stop = config.duration;
        src_cfg.burst_window = config.udp_burst_window;
        wire_udp_flow(i, ends, src_cfg);
      }
      continue;
    }

    if (!config.traffic_mix.empty()) {
      // TCP + traffic mix: the TCP download keeps running, and each station
      // additionally sinks one modelled background flow from the AP side —
      // the HACK-vs-EDCA interaction workload (compressed-ACK batches
      // contending with tagged voice/video). Background flows live in their
      // own port range (7000+i) and seed namespace (2^33 + i), so neither
      // the TCP ports nor the UDP-mix seed streams can collide.
      auto bg_port = static_cast<uint16_t>(7000 + i);
      wire_udp_flow(i, flow_ends(i, /*uplink=*/false, bg_port, bg_port),
                    traffic_config(i, uint64_t{1} << 33));
    }

    // The measured TCP flow, from the server on download and from the
    // client on upload.
    ep.tcp_tx = std::make_unique<TcpSender>(
        &scheduler, config.tcp, ends.Tuple(kIpProtoTcp),
        [node = ends.tx](Packet p) { node->Send(std::move(p)); },
        config.file_bytes);
    ep.tcp_rx = std::make_unique<TcpReceiver>(
        &scheduler, config.tcp, ends.Tuple(kIpProtoTcp),
        [node = ends.rx](Packet p) { node->Send(std::move(p)); });
    ep.tcp_rx->on_data = [&ep, &scheduler](uint64_t bytes) {
      ep.tracker.OnBytesDelivered(scheduler.Now(), bytes);
    };
    ends.rx->RegisterHandler(
        ends.rx_port,
        [rx = ep.tcp_rx.get(), &ep, &record_tcp_latency](const Packet& p) {
          record_tcp_latency(ep, p);
          rx->OnPacket(p);
        });
    ends.tx->RegisterHandler(ends.tx_port,
                             [tx = ep.tcp_tx.get()](const Packet& p) {
                               tx->OnPacket(p);
                             });
    ep.tcp_tx->on_complete = [&ep, &scheduler, &completed]() {
      ep.completion = scheduler.Now();
      ++completed;
    };
    if (present[static_cast<size_t>(i)]) {
      scheduler.ScheduleAt(specs[i].start_offset,
                           [tx = ep.tcp_tx.get()]() { tx->Start(); });
      ep.tcp_started = true;
    }
  }

  // --- fault engine + watchdog ------------------------------------------------------
  const char* topo_name = config.topology == Topology::kRing ? "ring"
                          : config.topology == Topology::kUniformDisk
                              ? "disk"
                              : "hidden";
  std::string repro =
      "seed=" + std::to_string(config.seed) + " std=" +
      (config.standard == WifiStandard::k80211a ? "a" : "n") +
      " topo=" + topo_name +
      " proto=" +
      std::string(config.proto == TransportProto::kUdp ? "udp" : "tcp") +
      (config.upload ? "-up" : "") +
      " n=" + std::to_string(config.n_clients) +
      " dur_us=" + std::to_string(config.duration.ns() / 1000);
  if (faults_enabled) {
    repro += " plan=\"" + plan.ToString() + "\"";
  }
  // Any CHECK failure from here on prints the full repro recipe.
  SetAbortContext(repro);

  FaultStats fault_stats;
  if (faults_enabled) {
    auto apply = [&](const FaultEvent& ev) {
      fault_stats.last_fault_time = scheduler.Now();
      switch (ev.type) {
        case FaultType::kCrash:
        case FaultType::kLeave: {
          size_t s = static_cast<size_t>(ev.station);
          if (!present[s]) break;
          present[s] = 0;
          if (ev.type == FaultType::kLeave) {
            // Clean departure: the AP is told and frees the station's
            // queue, service slot and StationId immediately.
            ap_device->mac().Disassociate(client_mac_addr(ev.station));
            ++fault_stats.leaves;
          } else {
            // Silent crash: the AP finds out the hard way (retry give-ups
            // feeding the dead-peer flush).
            ++fault_stats.crashes;
          }
          if (clients[s].source != nullptr) {
            clients[s].source->Stop();
          }
          clients[s].device->phy().SetRadioOn(false);
          clients[s].device->mac().ResetRadioState();
          break;
        }
        case FaultType::kJoin: {
          size_t s = static_cast<size_t>(ev.station);
          if (present[s]) break;
          present[s] = 1;
          ++fault_stats.joins;
          fault_stats.last_recovery_time = scheduler.Now();
          clients[s].device->phy().SetRadioOn(true);
          // Fresh association both ways; Associate() scrubs whatever state
          // the AP still holds from the station's previous life.
          ap_device->mac().Associate(client_mac_addr(ev.station));
          clients[s].device->mac().Associate(ap_mac_addr);
          // Independent ifs, not an else-chain: a TCP+mix station owns both
          // a background source (resumed) and a TCP sender (started once).
          if (clients[s].source != nullptr) {
            clients[s].source->Resume(scheduler.Now(), config.duration);
          }
          if (clients[s].tcp_tx != nullptr && !clients[s].tcp_started) {
            clients[s].tcp_tx->Start();
            clients[s].tcp_started = true;
          }
          break;
        }
        case FaultType::kRadioReset: {
          size_t s = static_cast<size_t>(ev.station);
          if (!present[s]) break;
          ++fault_stats.radio_resets;
          clients[s].device->phy().SetRadioOn(false);
          clients[s].device->mac().ResetRadioState();
          clients[s].device->phy().SetRadioOn(true);
          // Only the client re-associates: the AP never saw the reset, and
          // its live downlink queue toward the station must survive it.
          clients[s].device->mac().Associate(ap_mac_addr);
          break;
        }
        case FaultType::kApDown: {
          ++fault_stats.ap_outages;
          ap_device->phy().SetRadioOn(false);
          ap_device->mac().ResetRadioState();
          break;
        }
        case FaultType::kApUp: {
          ++fault_stats.ap_restarts;
          fault_stats.last_recovery_time = scheduler.Now();
          ap_device->phy().SetRadioOn(true);
          // Rebuild association state for every station still present, in
          // index order — StationIds come out dense, exactly like at boot.
          // The stations reassociate too: reassociation tears down both
          // sides' Block ACK windows, so the restarted AP's fresh sequence
          // numbers are not discarded as ancient duplicates.
          for (int i = 0; i < config.n_clients; ++i) {
            if (present[static_cast<size_t>(i)]) {
              ap_device->mac().Associate(client_mac_addr(i));
              clients[static_cast<size_t>(i)].device->mac().Associate(
                  ap_mac_addr);
            }
          }
          break;
        }
        case FaultType::kBurstStart: {
          ++fault_stats.bursts;
          for (GatedLossModel* gate : gated) {
            gate->set_extra_loss(ev.extra_loss);
          }
          break;
        }
        case FaultType::kBurstEnd: {
          for (GatedLossModel* gate : gated) {
            gate->set_extra_loss(0.0);
          }
          break;
        }
      }
    };
    for (const FaultEvent& ev : plan.events) {
      scheduler.ScheduleAt(ev.at, [apply, ev]() { apply(ev); });
    }
  }

  WatchdogConfig wd_cfg;
  wd_cfg.interval = config.watchdog_interval;
  wd_cfg.abort_on_trip = config.watchdog_abort_on_trip;
  SimWatchdog watchdog(&scheduler, wd_cfg);
  if (!wd_cfg.interval.IsZero()) {
    // Forward progress = PPDUs on the medium; a station holding backlog
    // while the channel stays silent for several audit periods is a stall.
    watchdog.set_progress_probe(
        [&channel]() { return channel.airtime().ppdus; });
    watchdog.set_backlog_probe([&clients, ap = ap_device.get()]() {
      if (ap->mac().HasBacklog()) return true;
      for (const ClientEndpoint& ep : clients) {
        if (ep.device->mac().HasBacklog()) return true;
      }
      return false;
    });
    watchdog.set_nav_probe([&clients, ap = ap_device.get()]() {
      SimTime nav = ap->mac().nav_until();
      for (const ClientEndpoint& ep : clients) {
        nav = std::max(nav, ep.device->mac().nav_until());
      }
      return nav;
    });
    watchdog.set_repro(repro);
    watchdog.Start();
  }

  // --- run ----------------------------------------------------------------------------
  SimTime end;
  if (config.file_bytes > 0 && config.proto == TransportProto::kTcp) {
    // Run until all transfers complete (bounded by a generous cap).
    SimTime cap = config.duration * 50;
    while (completed < config.n_clients && scheduler.Now() < cap) {
      if (scheduler.Run(200'000) == 0) {
        break;  // queue drained (stall would be a bug; tests check this)
      }
    }
    end = scheduler.Now();
  } else {
    scheduler.RunUntil(config.duration);
    end = config.duration;
  }

  // --- collect ---------------------------------------------------------------------------
  ScenarioResult result;
  result.sim_end = end;
  result.airtime = channel.airtime();
  result.events_executed = scheduler.events_executed();
  for (size_t i = 0; i < kEventClassCount; ++i) {
    result.events_by_class[i] =
        scheduler.executed_in_class(static_cast<EventClass>(i));
  }
  result.ap_mac = ap_device->mac().stats();
  result.ap_phy = ap_device->phy().stats();
  if (ap_device->hack() != nullptr) {
    result.ap_hack = ap_device->hack()->stats();
    result.crc_failures += result.ap_hack.crc_failures_at_ap;
  }

  SimTime steady_from = specs.empty() ? SimTime::Zero()
                                      : specs.back().start_offset +
                                            SimTime::Seconds(2);
  if (steady_from >= end) {
    steady_from = SimTime::Nanos(end.ns() / 2);
  }

  for (int i = 0; i < config.n_clients; ++i) {
    ClientEndpoint& ep = clients[i];
    ClientResult cr;
    cr.bytes_delivered = ep.tracker.total_bytes();
    if (config.proto == TransportProto::kUdp) {
      cr.bytes_delivered = ep.udp_sink->bytes_received();
      cr.goodput_mbps = ep.udp_sink->tracker().TotalGoodputMbps(end);
      cr.steady_goodput_mbps =
          ep.udp_sink->tracker().GoodputMbps(steady_from, end);
    } else {
      SimTime measure_end = ep.completion.IsZero() ? end : ep.completion;
      cr.goodput_mbps = static_cast<double>(cr.bytes_delivered) * 8.0 /
                        std::max<int64_t>(1, (measure_end -
                                              specs[i].start_offset).ns()) *
                        1e9 / 1e6;
      if (steady_from < measure_end) {
        cr.steady_goodput_mbps =
            ep.tracker.GoodputMbps(steady_from, measure_end);
      }
      cr.completion_time = ep.completion;
    }
    cr.mac = ep.device->mac().stats();
    cr.phy = ep.device->phy().stats();
    if (ep.device->hack() != nullptr) {
      cr.hack = ep.device->hack()->stats();
      result.crc_failures += cr.hack.crc_failures_at_ap;
    }
    if (ep.tcp_tx != nullptr) {
      // Only the client's own end of the flow is reported.
      if (config.upload) {
        cr.tcp_tx = ep.tcp_tx->stats();
      } else {
        cr.tcp_rx = ep.tcp_rx->stats();
      }
      result.tcp_timeouts += ep.tcp_tx->stats().timeouts;
    }
    result.aggregate_goodput_mbps += cr.goodput_mbps;
    result.steady_aggregate_goodput_mbps += cr.steady_goodput_mbps;
    result.clients.push_back(std::move(cr));
  }

  result.fault = fault_stats;
  result.watchdog = watchdog.stats();
  result.final_pending_events = scheduler.pending_events();
  for (uint8_t ac = 0; ac < kNumAcs; ++ac) {
    result.ac_latency[ac] = latency.Summarize(ac);
  }
  // Recovery goodput: aggregate strictly after the plan's last recovery
  // event (the churn/outage bench gates this against the fault-free row).
  SimTime recovery = fault_stats.last_recovery_time;
  if (!recovery.IsZero() && recovery < end) {
    for (int i = 0; i < config.n_clients; ++i) {
      const GoodputTracker& tracker =
          config.proto == TransportProto::kUdp
              ? clients[i].udp_sink->tracker()
              : clients[i].tracker;
      result.post_fault_goodput_mbps += tracker.GoodputMbps(recovery, end);
    }
  }
  return result;
}

ScenarioConfig SoraTestbed(int n_clients) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211a;
  c.data_rate_mbps = 54.0;
  c.n_clients = n_clients;
  c.tcp.mss = 1448;
  c.sora_ack_quirk = true;
  c.clients.resize(static_cast<size_t>(n_clients));
  c.clients[0].bernoulli_data_loss = 0.02;  // Client 1 is lossier (§4.2)
  if (n_clients > 1) {
    c.clients[1].bernoulli_data_loss = 0.01;
  }
  return c;
}

}  // namespace hacksim
