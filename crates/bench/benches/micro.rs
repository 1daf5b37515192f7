//! Microbenchmarks of the hot paths: the AVCL, frequent-pattern matching,
//! dictionary encode, and the NoC simulation kernel itself.

use anoc_compression::di::{DiConfig, DiEncoder};
use anoc_compression::fp::FpEncoder;
use anoc_compression::fpc;
use anoc_compression::lz::{LzConfig, LzDecoder, LzEncoder};
use anoc_core::avcl::Avcl;
use anoc_core::codec::{BlockDecoder, BlockEncoder};
use anoc_core::data::{CacheBlock, DataType, NodeId};
use anoc_core::rng::Pcg32;
use anoc_core::threshold::ErrorThreshold;
use anoc_noc::{NocConfig, NocSim, NodeCodec};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let t = ErrorThreshold::from_percent(10).expect("valid");
    let avcl = Avcl::new(t);
    let mut rng = Pcg32::seed_from_u64(1);
    let words: Vec<u32> = (0..1024).map(|_| rng.next_u32()).collect();

    c.bench_function("micro/avcl/approx_pattern_int", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &w in &words {
                acc ^= avcl.approx_pattern(w, DataType::Int).mask();
            }
            acc
        })
    });

    c.bench_function("micro/fpc/best_match_exact", |b| {
        b.iter(|| {
            words
                .iter()
                .filter(|w| fpc::best_match(**w, 0).is_some())
                .count()
        })
    });

    let blocks: Vec<CacheBlock> = (0..64)
        .map(|i| CacheBlock::from_i32(&[i * 37; 16]))
        .collect();
    c.bench_function("micro/fp_vaxx/encode_block", |b| {
        let mut enc = FpEncoder::fp_vaxx(avcl);
        b.iter(|| {
            let mut bits = 0u32;
            for block in &blocks {
                bits += enc.encode(block, NodeId(1)).payload_bits();
            }
            bits
        })
    });

    c.bench_function("micro/di_vaxx/encode_block", |b| {
        let mut enc = DiEncoder::di_vaxx(DiConfig::for_nodes(4), Avcl::new(t));
        b.iter(|| {
            let mut bits = 0u32;
            for block in &blocks {
                bits += enc.encode(block, NodeId(1)).payload_bits();
            }
            bits
        })
    });

    // LZ-VAXX: a mixed workload (runs, cross-word repeats, noise) so the
    // match finder exercises both its hit and miss paths.
    let lz_blocks: Vec<CacheBlock> = (0..64)
        .map(|i| {
            let base = i * 37 + 1;
            let words: Vec<i32> = (0..16)
                .map(|k| match k % 4 {
                    0 | 1 => base,
                    2 => 0,
                    _ => base ^ (k << 13),
                })
                .collect();
            CacheBlock::from_i32(&words)
        })
        .collect();
    c.bench_function("micro/lz_vaxx/encode_block", |b| {
        let mut enc = LzEncoder::lz_vaxx(LzConfig::default(), avcl);
        b.iter(|| {
            let mut bits = 0u32;
            for block in &lz_blocks {
                bits += enc.encode(block, NodeId(1)).payload_bits();
            }
            bits
        })
    });
    c.bench_function("micro/lz_vaxx/decode_block", |b| {
        let mut enc = LzEncoder::lz_vaxx(LzConfig::default(), avcl);
        let encoded: Vec<_> = lz_blocks
            .iter()
            .map(|bl| enc.encode(bl, NodeId(1)))
            .collect();
        let mut dec = LzDecoder::new();
        b.iter(|| {
            let mut words = 0usize;
            for e in &encoded {
                words += dec.decode(e, NodeId(0)).block.len();
            }
            words
        })
    });

    let mut group = c.benchmark_group("micro/noc");
    group.sample_size(20);
    group.bench_function("step_4x4_cmesh_idle", |b| {
        let cfg = NocConfig::paper_4x4_cmesh();
        let n = cfg.num_nodes();
        let mut sim = NocSim::new(cfg, (0..n).map(|_| NodeCodec::baseline()).collect());
        b.iter(|| {
            sim.step();
            sim.cycle()
        })
    });
    // The kernel benchmark behind BENCH_kernel.json: the steady-state step
    // loop under sustained uniform-random traffic on the paper's 4x4 cmesh.
    // Each iteration advances 100 cycles with fresh injections, so the
    // reported time divided by 100 is the per-cycle cost at steady state.
    group.bench_function("step_4x4_cmesh_uniform_random", |b| {
        let (mut sim, mut drive) = uniform_random(NocConfig::paper_4x4_cmesh(), 100, 4, 5);
        b.iter(|| drive(&mut sim, 100))
    });
    // The shape perfbench's `big-mesh` workload runs: a 512-node 16x16 cmesh
    // just below saturation (about 0.08 flits/node/cycle), codec bypassed.
    group.bench_function("step_16x16_cmesh_uniform_random", |b| {
        let (mut sim, mut drive) = uniform_random(NocConfig::cmesh_16x16(), 1000, 30, 36);
        b.iter(|| drive(&mut sim, 100))
    });
    group.bench_function("deliver_1000_packets", |b| {
        b.iter(|| {
            let cfg = NocConfig::paper_4x4_cmesh();
            let n = cfg.num_nodes();
            let mut sim = NocSim::new(cfg, (0..n).map(|_| NodeCodec::baseline()).collect());
            let mut rng = Pcg32::seed_from_u64(7);
            for _ in 0..1000 {
                let s = rng.below(32);
                let mut d = rng.below(32);
                while d == s {
                    d = rng.below(32);
                }
                sim.enqueue_control(NodeId(s as u16), NodeId(d as u16));
            }
            assert!(sim.drain(100_000));
            sim.stats().packets
        })
    });
    group.finish();
}

/// A baseline-codec network on `cfg` and a closure that advances it by a
/// number of cycles under uniform-random traffic: each node and cycle rolls
/// below `denom` and offers a control packet on a roll below `control`, a
/// data packet on a roll below `data`. The network is brought to steady
/// state (2 000 cycles) before it is returned.
fn uniform_random(
    cfg: NocConfig,
    denom: u32,
    control: u32,
    data: u32,
) -> (NocSim, impl FnMut(&mut NocSim, u64) -> usize) {
    let n = cfg.num_nodes();
    let mut sim = NocSim::new(cfg, (0..n).map(|_| NodeCodec::baseline()).collect());
    let mut rng = Pcg32::seed_from_u64(42);
    let mut drive = move |sim: &mut NocSim, cycles: u64| {
        for _ in 0..cycles {
            for node in 0..n {
                let roll = rng.below(denom);
                if roll >= data {
                    continue;
                }
                let mut d = rng.below(n as u32) as usize;
                if d == node {
                    d = (d + 1) % n;
                }
                if roll < control {
                    sim.enqueue_control(NodeId(node as u16), NodeId(d as u16));
                } else {
                    let block = CacheBlock::from_i32(&[roll as i32; 16]);
                    sim.enqueue_data(NodeId(node as u16), NodeId(d as u16), block);
                }
            }
            sim.step();
        }
        sim.drain_delivered().len()
    };
    drive(&mut sim, 2_000);
    (sim, drive)
}

criterion_group!(benches, bench);
criterion_main!(benches);
