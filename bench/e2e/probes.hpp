// Layer probes for e2e_bench: each one times a layer's public functions in
// isolation, with inputs sized like the benchmark's workloads.  A probe
// result times a per-layer count from a cluster run gives that layer's
// estimated cost per committed root (README.md, "Attribution").
//
// Every probe runs for about `budget_s` seconds, split into slices, and
// reports the median slice; probes never touch a Cluster the benchmark
// measures.
#pragma once

namespace lotec::e2e {

struct ProbeResults {
  double sched_spawn_ns = 0;    ///< TokenScheduler::run, per empty family
  double sched_handoff_ns = 0;  ///< one preempt() token handoff
  double gdo_acquire_release_ns = 0;  ///< acquire + release_family, replicated
  double page_copy_ns = 0;      ///< ObjectImage::write_bytes of one 4 KiB page
  double undo_capture_ns_per_kb = 0;  ///< UndoLog::before_write per KiB
  double method_attr_write_ns = 0;    ///< one attribute write via run_root
  double net_send_ns = 0;       ///< Transport::send, recorder + counters on
  double wire_codec_ns = 0;     ///< encode_frame + decode_frame
  double wire_uds_rtt_us = 0;   ///< 64-byte ping-pong over a socketpair
};

/// Run every probe.  `attr_bytes` sizes the undo and method probes.
[[nodiscard]] ProbeResults run_probes(double budget_s, unsigned attr_bytes);

}  // namespace lotec::e2e
