//! Fault-injection integration tests: inert plans must be bit-identical to
//! no plan at all, seeded plans must be reproducible, the bound checker's
//! violation curve must track the bit-flip rate, and the watchdog must turn
//! a credit-starvation deadlock into a structured error instead of a hang.

use anoc_core::data::{CacheBlock, NodeId};
use anoc_core::rng::Pcg32;
use anoc_core::threshold::ErrorThreshold;
use anoc_noc::{FaultPlan, NocConfig, NocSim, NodeCodec, SimError};

/// Runs a fixed uniform-random workload under `plan` (with the bound checker
/// armed) and renders the statistics that matter for fault experiments.
fn fault_fingerprint(plan: Option<FaultPlan>) -> String {
    let config = NocConfig::mesh_3x3();
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, (0..nodes).map(|_| NodeCodec::baseline()).collect());
    if let Some(plan) = plan {
        sim.set_fault_plan(plan);
    }
    sim.set_bound_check(ErrorThreshold::from_percent(10).expect("valid"));
    sim.set_watchdog(50_000);
    let mut rng = Pcg32::seed_from_u64(0xFA17);
    sim.begin_measurement();
    for _ in 0..600 {
        for node in 0..nodes {
            if rng.below(100) >= 5 {
                continue;
            }
            let mut d = rng.below(nodes as u32) as usize;
            if d == node {
                d = (d + 1) % nodes;
            }
            let w = rng.next_u32() as i32;
            sim.enqueue_data(
                NodeId(node as u16),
                NodeId(d as u16),
                CacheBlock::from_i32(&[w; 16]),
            );
        }
        sim.step();
    }
    sim.try_drain(100_000).expect("drain must not deadlock");
    let s = sim.stats();
    let f = &s.faults;
    format!(
        "cyc={} pk={} fi={} fd={} nl={} flips={} stalls={} cdrop={} cdup={} dict={} checked={} viol={}",
        s.cycles,
        s.packets,
        s.flits_injected,
        s.flits_delivered,
        s.net_lat_sum,
        f.bit_flips,
        f.port_stalls,
        f.credits_dropped,
        f.credits_duplicated,
        f.dict_corruptions,
        f.bound_checked_words,
        f.bound_violations,
    )
}

#[test]
fn inert_fault_plans_are_bit_identical_to_no_plan() {
    let bare = fault_fingerprint(None);
    let none = fault_fingerprint(Some(FaultPlan::none()));
    // Zero rates with a nonzero seed must also be inert: fault sites may not
    // draw from the fault RNG unless their rate is nonzero.
    let seeded_inert = fault_fingerprint(Some(FaultPlan {
        seed: 0xDEAD_BEEF,
        ..FaultPlan::none()
    }));
    assert_eq!(bare, none);
    assert_eq!(bare, seeded_inert);
    assert!(bare.contains("flips=0"), "{bare}");
    assert!(bare.contains("viol=0"), "{bare}");
    assert!(
        !bare.contains("checked=0"),
        "bound checker never ran: {bare}"
    );
}

#[test]
fn seeded_fault_plans_are_reproducible() {
    let plan = FaultPlan {
        seed: 7,
        link_bit_flip_ppm: 20_000,
        port_stall_ppm: 5_000,
        stall_cycles: 3,
        credit_drop_ppm: 0,
        credit_dup_ppm: 0,
        dict_corrupt_ppm: 0,
    };
    let a = fault_fingerprint(Some(plan));
    let b = fault_fingerprint(Some(plan));
    assert_eq!(a, b);
    assert!(!a.contains("flips=0"), "plan injected nothing: {a}");
    // A different fault seed at the same rates perturbs different bits.
    let c = fault_fingerprint(Some(FaultPlan { seed: 8, ..plan }));
    assert_ne!(a, c);
}

#[test]
fn bound_violations_grow_with_bit_flip_rate() {
    let curve: Vec<(u64, u64, u64)> = [0u32, 2_000, 50_000, 400_000]
        .iter()
        .map(|&ppm| {
            let fp = fault_fingerprint(Some(FaultPlan::bit_flips(11, ppm)));
            let grab = |tag: &str| -> u64 {
                fp.split_whitespace()
                    .find_map(|kv| kv.strip_prefix(tag))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("missing {tag} in {fp}"))
            };
            (grab("flips="), grab("checked="), grab("viol="))
        })
        .collect();
    // Same workload, so the same words are audited at every rate.
    assert!(curve.windows(2).all(|w| w[0].1 == w[1].1), "{curve:?}");
    // No faults, no flips, no violations.
    assert_eq!((curve[0].0, curve[0].2), (0, 0), "{curve:?}");
    // Flips strictly increase with the rate; violations never decrease and
    // eventually appear.
    assert!(curve.windows(2).all(|w| w[0].0 < w[1].0), "{curve:?}");
    assert!(curve.windows(2).all(|w| w[0].2 <= w[1].2), "{curve:?}");
    assert!(curve.last().expect("nonempty").2 > 0, "{curve:?}");
}

#[test]
fn watchdog_reports_credit_starvation_as_deadlock() {
    let config = NocConfig::mesh_3x3();
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, (0..nodes).map(|_| NodeCodec::baseline()).collect());
    // Every credit return is dropped: downstream buffers drain their credit
    // pool and the network wedges with packets in flight.
    sim.set_fault_plan(FaultPlan {
        seed: 1,
        credit_drop_ppm: 1_000_000,
        ..FaultPlan::none()
    });
    sim.set_watchdog(2_000);
    for i in 0..200 {
        let src = (i % nodes) as u16;
        let dest = ((i + 4) % nodes) as u16;
        sim.enqueue_data(
            NodeId(src),
            NodeId(dest),
            CacheBlock::from_i32(&[i as i32; 16]),
        );
    }
    let err = sim.try_drain(1_000_000).expect_err("must deadlock");
    match err {
        SimError::Deadlock(dump) => {
            assert!(dump.live_packets > 0, "{dump}");
            assert!(!dump.stuck.is_empty(), "{dump}");
            assert!(dump.cycle >= dump.last_progress + 2_000, "{dump}");
            // The rendering is the operator-facing diagnostic: it must name
            // the stall and show the oldest stuck packets.
            let text = dump.to_string();
            assert!(text.contains("stuck"), "{text}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn watchdog_stays_quiet_on_healthy_runs() {
    let config = NocConfig::mesh_3x3();
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, (0..nodes).map(|_| NodeCodec::baseline()).collect());
    sim.set_watchdog(1_000);
    for i in 0..50 {
        sim.enqueue_data(NodeId(0), NodeId(8), CacheBlock::from_i32(&[i; 16]));
    }
    sim.try_drain(100_000).expect("healthy run");
    // Long idle stretches after completion must not trip the watchdog.
    sim.try_run(5_000).expect("idle network is not a deadlock");
    assert_eq!(sim.stats().faults.bound_violations, 0);
}

/// Every router-level fault site at once on the paper's 4x4 cmesh: link bit
/// flips, port stalls, and credits both dropped and duplicated. A duplicated
/// credit lets the upstream hop send more flits than the downstream VC has
/// slots, so these are the only runs that overfill a VC buffer; the router
/// must queue the surplus in FIFO order rather than drop or reorder it.
/// Renders every statistic, fault counter and activity counter.
fn faulted_cmesh_fingerprint(shards: usize) -> String {
    let config = NocConfig::paper_4x4_cmesh();
    let nodes = config.num_nodes();
    let mut sim = NocSim::new(config, (0..nodes).map(|_| NodeCodec::baseline()).collect());
    sim.set_shards(shards);
    sim.set_fault_plan(FaultPlan {
        seed: 0xC4ED,
        link_bit_flip_ppm: 30_000,
        port_stall_ppm: 20_000,
        stall_cycles: 4,
        credit_drop_ppm: 2_000,
        credit_dup_ppm: 80_000,
        dict_corrupt_ppm: 0,
    });
    sim.set_bound_check(ErrorThreshold::from_percent(10).expect("valid"));
    sim.set_watchdog(50_000);
    let mut rng = Pcg32::seed_from_u64(0x000F_100D);
    sim.begin_measurement();
    for _ in 0..900 {
        for node in 0..nodes {
            let roll = rng.below(100);
            if roll >= 7 {
                continue;
            }
            let mut d = rng.below(nodes as u32) as usize;
            if d == node {
                d = (d + 1) % nodes;
            }
            if roll < 3 {
                sim.enqueue_control(NodeId(node as u16), NodeId(d as u16));
            } else {
                let w = rng.next_u32() as i32;
                sim.enqueue_data(
                    NodeId(node as u16),
                    NodeId(d as u16),
                    CacheBlock::from_i32(&[w; 16]),
                );
            }
        }
        sim.step();
        sim.discard_delivered();
    }
    assert!(
        sim.try_drain(200_000).expect("drain must not deadlock"),
        "workload failed to drain"
    );
    let s = sim.stats();
    let f = &s.faults;
    let a = sim.activity_report().routers;
    format!(
        "cyc={} pk={} fi={} fd={} ql={} nl={} p99={} flips={} stalls={} cdrop={} cdup={} \
         checked={} viol={} bw={} br={} va={} xb={} lt={}",
        s.cycles,
        s.packets,
        s.flits_injected,
        s.flits_delivered,
        s.queue_lat_sum,
        s.net_lat_sum,
        s.latency_histogram.percentile(99.0),
        f.bit_flips,
        f.port_stalls,
        f.credits_dropped,
        f.credits_duplicated,
        f.bound_checked_words,
        f.bound_violations,
        a.buffer_writes,
        a.buffer_reads,
        a.vc_allocs,
        a.crossbar_traversals,
        a.link_traversals,
    )
}

/// Golden kernel fingerprint with faults active: a change to the router's
/// state layout must reproduce it bit for bit, overfilled VCs included, on
/// any shard count.
#[test]
fn faulted_kernel_fingerprint_is_pinned() {
    const GOLDEN: &str =
        "cyc=1108 pk=2094 fi=11790 fd=11790 ql=34471 nl=143393 p99=319 flips=1167 stalls=835 \
         cdrop=84 cdup=3327 checked=19392 viol=196 bw=41462 br=41462 va=7422 xb=41462 lt=29672";
    let serial = faulted_cmesh_fingerprint(1);
    assert_eq!(serial, GOLDEN);
    assert_eq!(faulted_cmesh_fingerprint(3), serial);
}
