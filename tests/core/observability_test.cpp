// The observability acceptance criteria of the datapath layer: status_json
// must expose per-FPM and per-stage counters from the kernel's metrics
// registry, a traced packet must yield an ordered JSON journey through both
// the fast and slow path, and the Prometheus exposition must carry both
// datapath and controller series.
#include <gtest/gtest.h>

#include <cstring>

#include "core/controller.h"
#include "core/status.h"
#include "tests/kernel/test_topo.h"
#include "util/metrics.h"

namespace linuxfp::core {
namespace {

using linuxfp::testing::RouterDut;

TEST(Observability, StatusJsonExposesStageAndFpmCounters) {
  RouterDut dut;
  dut.add_prefixes(10);
  Controller controller(dut.kernel);
  controller.start();

  const int kPackets = 50;
  for (int i = 0; i < kPackets; ++i) {
    kern::CycleTrace t;
    dut.kernel.rx(dut.eth0_ifindex(),
                  dut.packet_to_prefix(i % 10, static_cast<std::uint16_t>(i)),
                  t);
  }

  util::Json st = status_json(controller);
  const util::Json& counters = st.at("metrics").at("counters");

  // Per-FPM: the router FPM deployed at least once (eth0 + eth1 graphs).
  EXPECT_GE(counters.at("fpm.router.deployed").as_int(), 1);

  // Per-stage: every packet entered through driver_rx; the accelerated ones
  // ran the XDP program stage.
  EXPECT_GE(counters.at("slowpath.driver_rx.calls").as_int(), kPackets);
  EXPECT_GT(counters.at("slowpath.driver_rx.cycles").as_int(), 0);
  EXPECT_GT(counters.at("slowpath.xdp_prog.calls").as_int(), 0);

  // Per-attachment fast-path counters and per-helper call counts.
  EXPECT_GT(counters.at("fastpath.lfp@eth0.xdp.runs").as_int(), 0);
  EXPECT_GT(counters.at("fastpath.lfp@eth0.xdp.redirect").as_int(), 0);
  EXPECT_GT(counters.at("ebpf.helper.fib_lookup.calls").as_int(), 0);

  // FIB activity flows through the (metrics-carrying) FibResult depth.
  EXPECT_GT(counters.at("fib.lookups").as_int(), 0);
  EXPECT_GT(counters.at("fib.depth_total").as_int(), 0);

  // The datapath section mirrors the kernel counters.
  const util::Json& datapath = st.at("datapath");
  EXPECT_GT(datapath.at("fast_path_packets").as_int(), 0);
  EXPECT_EQ(datapath.at("forwarded").as_int(),
            static_cast<std::int64_t>(dut.kernel.counters().forwarded));
}

TEST(Observability, TracedPacketIsOrderedThroughFastAndSlowPath) {
  RouterDut dut;
  dut.add_prefixes(5);
  Controller controller(dut.kernel);
  controller.start();

  util::TraceRing ring(4);
  dut.kernel.set_trace_ring(&ring);

  // Fast path: routed prefix, XDP redirects.
  {
    kern::CycleTrace t;
    dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(1, 7), t);
  }
  ASSERT_EQ(ring.size(), 1u);
  {
    const util::PacketTrace& tr = ring.latest();
    EXPECT_TRUE(tr.fast_path);
    EXPECT_EQ(tr.verdict, "ok");
    EXPECT_EQ(tr.device, "eth0");
    EXPECT_GT(tr.total_cycles, 0u);
    ASSERT_GE(tr.events.size(), 3u);
    // Ordered: ingress stages first, then the eBPF program's events, then
    // the final verdict event.
    EXPECT_STREQ(tr.events.front().layer, "slow");
    EXPECT_STREQ(tr.events.front().stage, "driver_rx");
    EXPECT_STREQ(tr.events.back().layer, "verdict");
    EXPECT_STREQ(tr.events.back().stage, "ok");
    std::size_t first_ebpf = tr.events.size(), last_ebpf = 0;
    bool saw_redirect = false;
    for (std::size_t i = 0; i < tr.events.size(); ++i) {
      if (std::strcmp(tr.events[i].layer, "ebpf") == 0) {
        first_ebpf = std::min(first_ebpf, i);
        last_ebpf = i;
        if (std::strcmp(tr.events[i].stage, "redirect") == 0) {
          saw_redirect = true;
        }
      }
    }
    ASSERT_LT(first_ebpf, tr.events.size()) << "no eBPF events traced";
    EXPECT_GT(first_ebpf, 0u);                      // after driver_rx
    EXPECT_LT(last_ebpf, tr.events.size() - 1u);    // before the verdict
    EXPECT_TRUE(saw_redirect);
    // JSON form carries the same ordering.
    util::Json j = tr.to_json();
    EXPECT_EQ(j.at("events").at(0).at("stage").as_string(), "driver_rx");
    EXPECT_EQ(j.at("events").at(j.at("events").size() - 1)
                  .at("layer").as_string(),
              "verdict");
  }

  // Slow path: no installed route — XDP passes, the kernel stack walks
  // ip_rcv/fib_lookup and drops with no_route.
  {
    kern::CycleTrace t;
    dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(100, 7), t);
  }
  ASSERT_EQ(ring.size(), 2u);
  {
    const util::PacketTrace& tr = ring.latest();
    EXPECT_FALSE(tr.fast_path);
    EXPECT_EQ(tr.verdict, "no_route");
    bool saw_ip_rcv = false, saw_pass = false;
    for (const util::TraceEvent& ev : tr.events) {
      if (std::strcmp(ev.stage, "ip_rcv") == 0) saw_ip_rcv = true;
      if (std::strcmp(ev.layer, "ebpf") == 0 && ev.detail == "pass") {
        saw_pass = true;
      }
    }
    EXPECT_TRUE(saw_ip_rcv);
    EXPECT_TRUE(saw_pass);
    EXPECT_STREQ(tr.events.back().layer, "verdict");
    EXPECT_STREQ(tr.events.back().stage, "no_route");
  }

  dut.kernel.set_trace_ring(nullptr);
  {
    kern::CycleTrace t;
    dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(1, 8), t);
  }
  EXPECT_EQ(ring.size(), 2u) << "detached ring must stop recording";
}

TEST(Observability, PrometheusExportCarriesDatapathAndControllerSeries) {
  RouterDut dut;
  dut.add_prefixes(5);
  Controller controller(dut.kernel);
  controller.start();
  dut.kernel.metrics().set_histograms_enabled(true);
  for (int i = 0; i < 20; ++i) {
    kern::CycleTrace t;
    dut.kernel.rx(dut.eth0_ifindex(),
                  dut.packet_to_prefix(i % 5, static_cast<std::uint16_t>(i)),
                  t);
  }

  std::string text = prometheus_status(controller);
  for (const char* needle :
       {"# TYPE linuxfp_slowpath_driver_rx_calls counter",
        "linuxfp_fastpath_lfp_eth0_xdp_runs",
        "linuxfp_fpm_router_deployed",
        "linuxfp_controller_deploy_attempts",
        "linuxfp_controller_degraded",
        // Histograms were enabled → summary series exist.
        "linuxfp_slowpath_driver_rx_cycles_hist_count",
        "quantile=\"0.99\""}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Observability, DisabledMetricsFreezeCountersButKeepForwarding) {
  RouterDut dut;
  dut.add_prefixes(5);
  Controller controller(dut.kernel);
  controller.start();

  kern::CycleTrace t1;
  dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(1, 1), t1);
  std::uint64_t rx_calls = dut.kernel.metrics().value("slowpath.driver_rx.calls");
  ASSERT_GT(rx_calls, 0u);
  // The XDP router's bpf_fib_lookup counts in its VM; disabling freezes it.
  std::uint64_t fib_lookups = dut.kernel.metrics().value("fib.lookups");
  ASSERT_GT(fib_lookups, 0u);

  dut.kernel.set_metrics_enabled(false);
  std::size_t tx_before = dut.tx_eth1.size();
  kern::CycleTrace t2;
  dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(1, 2), t2);
  EXPECT_EQ(dut.kernel.metrics().value("slowpath.driver_rx.calls"), rx_calls);
  EXPECT_EQ(dut.kernel.metrics().value("fib.lookups"), fib_lookups);
  EXPECT_EQ(dut.tx_eth1.size(), tx_before + 1) << "datapath must not change";

  dut.kernel.set_metrics_enabled(true);
  kern::CycleTrace t3;
  dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(1, 3), t3);
  EXPECT_EQ(dut.kernel.metrics().value("slowpath.driver_rx.calls"),
            rx_calls + 1);
}

}  // namespace
}  // namespace linuxfp::core
