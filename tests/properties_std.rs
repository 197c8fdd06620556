//! The property suite, on the std-only `quickprop` harness, so randomized
//! invariant checking runs offline on every `cargo test`.
//!
//! Each property draws random synthetic circuits and tests from seeded
//! generators and shrinks failures greedily to a minimal counterexample;
//! the covered invariants are the cross-crate ones the kernels and
//! procedures lean on: serial/batched agreement at every lane word, lane
//! independence, sound fault dropping, the `N_cyc0` closed formula,
//! `.bench` round-tripping, limited-scan algebra (composition, full
//! length ≡ full scan), Procedure 1 determinism, LFSR jump-ahead, and the
//! SoA tile kernel — the levelized lowering against the serial gate-walk
//! reference on random scan chains, pattern-lane independence, and ragged
//! tile boundaries (`faults % W`, `patterns % P`).

#[path = "support/quickprop.rs"]
mod quickprop;

use quickprop::{check, no_shrink, shrink_usize_min, Gen};
use random_limited_scan::benchmarks::SynthConfig;
use random_limited_scan::core::cycles::measured_cycles;
use random_limited_scan::core::{derive_test_set, generate_ts0, ncyc0, RlsConfig};
use random_limited_scan::fsim::good::traces_differ;
use random_limited_scan::fsim::{
    compatible_run, simulate_tile_lanes, tile_fault_capacity, ChainMap, Fault, FaultId,
    FaultSimulator, FaultUniverse, GoodSim, LaneWord, ScanTest, ShiftOp, SimOptions,
};
use random_limited_scan::lfsr::{BitMatrix, FibonacciLfsr, SeedSequence};
use random_limited_scan::netlist::{parse_bench, write_bench, Circuit, LevelizedCircuit};
use random_limited_scan::scan::{for_each_lane_word, ops, MultiChain, PartialScan};

/// A small, valid synthetic sequential circuit description.
fn small_synth(g: &mut Gen) -> SynthConfig {
    SynthConfig {
        name: "prop".into(),
        inputs: g.usize_in(1, 5),
        outputs: g.usize_in(1, 4),
        dffs: g.usize_in(0, 6),
        gates: g.usize_in(5, 40),
        seed: g.word(),
        resistant_gates: 1,
        resistant_width: 4,
    }
}

/// Shrinks a circuit description towards the smallest legal one: fewer
/// gates first (the dominant size), then state, then ports.
fn shrink_synth(cfg: &SynthConfig) -> Vec<SynthConfig> {
    let mut out = Vec::new();
    for gates in shrink_usize_min(cfg.gates, 5) {
        out.push(SynthConfig {
            gates,
            ..cfg.clone()
        });
    }
    for dffs in quickprop::shrink_usize(cfg.dffs) {
        out.push(SynthConfig {
            dffs,
            ..cfg.clone()
        });
    }
    for inputs in shrink_usize_min(cfg.inputs, 1) {
        out.push(SynthConfig {
            inputs,
            ..cfg.clone()
        });
    }
    for outputs in shrink_usize_min(cfg.outputs, 1) {
        out.push(SynthConfig {
            outputs,
            ..cfg.clone()
        });
    }
    out
}

/// A random limited-scan test for a circuit (port of the proptest
/// `random_test` strategy).
fn random_test(c: &Circuit, g: &mut Gen, len: usize) -> ScanTest {
    let scan_in = g.bools(c.num_dffs());
    let vectors: Vec<Vec<bool>> = (0..len).map(|_| g.bools(c.num_inputs())).collect();
    let mut test = ScanTest::new(scan_in, vectors);
    if c.num_dffs() > 0 && len > 2 {
        let mut shifts = Vec::new();
        for u in 1..len {
            if g.usize_in(0, 3) == 0 {
                let amount = g.usize_in(1, c.num_dffs() + 1);
                shifts.push(ShiftOp {
                    at: u,
                    amount,
                    fill: g.bools(amount),
                });
            }
        }
        test = test.with_shifts(shifts).expect("interior units are valid");
    }
    test
}

#[test]
fn prop_bench_round_trip() {
    // The `.bench` writer and parser are inverse up to structure, and a
    // second round trip is textually a fixed point.
    check(
        "bench_round_trip",
        0x5eed_0001,
        32,
        small_synth,
        shrink_synth,
        |cfg| {
            let c = cfg.build();
            let text = write_bench(&c);
            let parsed = parse_bench(c.name(), &text).map_err(|e| e.to_string())?;
            let dims = |c: &Circuit| (c.num_inputs(), c.num_outputs(), c.num_dffs(), c.num_gates());
            if dims(&c) != dims(&parsed) {
                return Err(format!(
                    "dimensions changed: {:?} -> {:?}",
                    dims(&c),
                    dims(&parsed)
                ));
            }
            if write_bench(&parsed) != text {
                return Err("second round trip is not a fixed point".into());
            }
            Ok(())
        },
    );
}

#[test]
fn prop_batched_detection_matches_faulty_traces_at_every_width() {
    // Trace/batch agreement, widened: the bit-parallel kernel (at every
    // lane word) detects exactly the faults whose full faulty trace
    // differs from the good trace, in fault-enumeration order.
    check(
        "batched_matches_traces",
        0x5eed_0002,
        24,
        |g| (small_synth(g), g.word()),
        |(cfg, seed)| shrink_synth(cfg).into_iter().map(|c| (c, *seed)).collect(),
        |(cfg, seed)| {
            let c = cfg.build();
            let sim = GoodSim::new(&c);
            let test = random_test(&c, &mut Gen::new(*seed), 4);
            let good = sim.simulate_test(&test);
            let universe = FaultUniverse::enumerate(&c);
            let pairs: Vec<(FaultId, _)> = universe
                .faults()
                .iter()
                .enumerate()
                .map(|(i, &f)| (FaultId(i as u32), f))
                .collect();
            let expected: Vec<FaultId> = pairs
                .iter()
                .filter(|&&(_, f)| traces_differ(&good, &sim.simulate_faulty(&test, f)))
                .map(|&(id, _)| id)
                .collect();
            let lc = LevelizedCircuit::build(&c, sim.levelization());
            for_each_lane_word!(W => {
                let batched = soa_detections::<W>(&c, &lc, &test, &pairs);
                if batched != expected {
                    return Err(format!(
                        "{} lanes: batched {batched:?} != per-trace {expected:?}",
                        W::LANES
                    ));
                }
            });
            Ok(())
        },
    );
}

#[test]
fn prop_lanes_are_independent_at_every_width() {
    // Packing faults into one batch never changes any individual
    // verdict: a full-width batch detects exactly the concatenation of
    // the single-fault detections, at every width.
    check(
        "lane_independence",
        0x5eed_0003,
        16,
        |g| (small_synth(g), g.word()),
        |(cfg, seed)| shrink_synth(cfg).into_iter().map(|c| (c, *seed)).collect(),
        |(cfg, seed)| {
            let c = cfg.build();
            let sim = GoodSim::new(&c);
            let lc = LevelizedCircuit::build(&c, sim.levelization());
            let test = random_test(&c, &mut Gen::new(*seed), 4);
            let full = ChainMap::full(c.num_dffs());
            let packed = all_faults(&c);
            let singles: Vec<FaultId> = packed
                .iter()
                .flat_map(|&pair| {
                    let opts = SimOptions::default();
                    simulate_tile_lanes::<u64>(&c, &lc, &full, &[&test], &[pair], opts).remove(0)
                })
                .collect();
            for_each_lane_word!(W => {
                let batched = soa_detections::<W>(&c, &lc, &test, &packed);
                if batched != singles {
                    return Err(format!(
                        "{} lanes: batch verdicts {batched:?} != singleton verdicts {singles:?}",
                        W::LANES
                    ));
                }
            });
            Ok(())
        },
    );
}

#[test]
fn prop_ncyc0_formula_matches_measurement() {
    // The closed `N_cyc0` formula equals walking the generated TS0.
    check(
        "ncyc0_formula",
        0x5eed_0004,
        48,
        |g| {
            let la = g.usize_in(1, 20);
            (
                la,
                la + g.usize_in(0, 20), // lb >= la
                g.usize_in(1, 20),      // n
                g.usize_in(0, 12),      // nsv
                g.usize_in(1, 6),       // npi
            )
        },
        |&(la, lb, n, nsv, npi)| {
            let mut out = Vec::new();
            for la2 in shrink_usize_min(la, 1) {
                if la2 <= lb {
                    out.push((la2, lb, n, nsv, npi));
                }
            }
            for lb2 in shrink_usize_min(lb, la) {
                out.push((la, lb2, n, nsv, npi));
            }
            for n2 in shrink_usize_min(n, 1) {
                out.push((la, lb, n2, nsv, npi));
            }
            for nsv2 in quickprop::shrink_usize(nsv) {
                out.push((la, lb, n, nsv2, npi));
            }
            out
        },
        |&(la, lb, n, nsv, npi)| {
            // A circuit is only needed for its dimensions here.
            let mut c = Circuit::new("dims");
            for i in 0..npi {
                c.add_input(format!("i{i}"));
            }
            let first = c.inputs()[0];
            for i in 0..nsv {
                c.add_dff(format!("q{i}"), first);
            }
            c.add_output(first);
            let cfg = RlsConfig::new(la, lb, n);
            let ts0 = generate_ts0(&c, &cfg);
            let measured = measured_cycles(nsv, &ts0);
            let formula = ncyc0(nsv, la, lb, n);
            if measured != formula {
                return Err(format!("measured {measured} != formula {formula}"));
            }
            Ok(())
        },
    );
}

/// All stuck-at faults of a circuit, in enumeration order.
fn all_faults(c: &Circuit) -> Vec<(FaultId, Fault)> {
    FaultUniverse::enumerate(c)
        .faults()
        .iter()
        .enumerate()
        .map(|(i, &f)| (FaultId(i as u32), f))
        .collect()
}

/// Full-scan single-test SoA detections over `pairs`, chunked to the
/// 1-tall tile capacity of `W`.
fn soa_detections<W: LaneWord>(
    c: &Circuit,
    lc: &LevelizedCircuit,
    test: &ScanTest,
    pairs: &[(FaultId, Fault)],
) -> Vec<FaultId> {
    let full = ChainMap::full(c.num_dffs());
    pairs
        .chunks(tile_fault_capacity::<W>(1))
        .flat_map(|chunk| {
            let opts = SimOptions::default();
            simulate_tile_lanes::<W>(c, lc, &full, &[test], chunk, opts).remove(0)
        })
        .collect()
}

/// The serial gate-walk reference: the faults (in candidate order) whose
/// one-fault trace differs from the good trace.
fn serial_detections(
    sim: &GoodSim<'_>,
    test: &ScanTest,
    pairs: &[(FaultId, Fault)],
) -> Vec<FaultId> {
    let good = sim.simulate_test(test);
    pairs
        .iter()
        .filter(|&&(_, f)| traces_differ(&good, &sim.simulate_faulty(test, f)))
        .map(|&(id, _)| id)
        .collect()
}

/// A random scan-chain map for `n_sv` flip-flops — full scan, a partial
/// chain over a random subset in random order, or 1–4 round-robin
/// chains — and a random test shaped for it: one scan-in bit per loaded
/// position, shifts up to the longest chain with one fill bit per chain
/// per cycle.
fn random_chain_test(c: &Circuit, g: &mut Gen, len: usize) -> (ChainMap, ScanTest) {
    let n_sv = c.num_dffs();
    let chains = match g.usize_in(0, 3) {
        0 => ChainMap::full(n_sv),
        1 => {
            let mut order: Vec<usize> = (0..n_sv).filter(|_| g.usize_in(0, 2) == 0).collect();
            if order.len() > 1 {
                let k = g.usize_in(0, order.len());
                order.rotate_left(k);
            }
            ChainMap::from(&PartialScan::new(n_sv, order))
        }
        _ => ChainMap::from(&MultiChain::new(n_sv, g.usize_in(1, 5))),
    };
    let n = chains.chains().len();
    let mut shifts = Vec::new();
    if chains.max_chain_len() > 0 && len > 2 {
        for u in 1..len {
            if g.usize_in(0, 3) == 0 {
                let amount = g.usize_in(1, chains.max_chain_len() + 1);
                shifts.push(ShiftOp {
                    at: u,
                    amount,
                    fill: g.bools(amount * n),
                });
            }
        }
    }
    let test = ScanTest {
        scan_in: g.bools(chains.load().len()).into(),
        vectors: (0..len).map(|_| g.bools(c.num_inputs())).collect(),
        shifts: shifts.into(),
    };
    (chains, test)
}

/// `count` shape-compatible random tests: one shared (length, shift
/// schedule) drawn first, then independent scan-ins, vectors, and fills
/// per test — exactly the freedom `tile_compatible` allows.
fn compatible_random_tests(c: &Circuit, g: &mut Gen, len: usize, count: usize) -> Vec<ScanTest> {
    let mut schedule = Vec::new();
    if c.num_dffs() > 0 && len > 2 {
        for u in 1..len {
            if g.usize_in(0, 3) == 0 {
                schedule.push((u, g.usize_in(1, c.num_dffs() + 1)));
            }
        }
    }
    (0..count)
        .map(|_| {
            let scan_in = g.bools(c.num_dffs());
            let vectors: Vec<Vec<bool>> = (0..len).map(|_| g.bools(c.num_inputs())).collect();
            let shifts: Vec<ShiftOp> = schedule
                .iter()
                .map(|&(at, amount)| ShiftOp {
                    at,
                    amount,
                    fill: g.bools(amount),
                })
                .collect();
            ScanTest::new(scan_in, vectors)
                .with_shifts(shifts)
                .expect("interior units are valid")
        })
        .collect()
}

#[test]
fn prop_soa_kernel_matches_gate_walk_on_random_netlists() {
    // The levelized lowering and the chain-map shifts round-trip: on any
    // random netlist under random scan chains (full, partial or
    // multichain) the SoA kernel detects exactly what the serial
    // gate-walking simulator on the same chains does, order-exact, at
    // every lane word.
    check(
        "soa_matches_gate_walk",
        0x5eed_0006,
        24,
        |g| (small_synth(g), g.word()),
        |(cfg, seed)| shrink_synth(cfg).into_iter().map(|c| (c, *seed)).collect(),
        |(cfg, seed)| {
            let c = cfg.build();
            let (chains, test) = random_chain_test(&c, &mut Gen::new(*seed), 4);
            let sim = GoodSim::new(&c).with_chains(chains.clone());
            let lc = LevelizedCircuit::build(&c, sim.levelization());
            let pairs = all_faults(&c);
            let walk = serial_detections(&sim, &test, &pairs);
            let opts = SimOptions::default();
            for_each_lane_word!(W => {
                let soa: Vec<FaultId> = pairs
                    .chunks(tile_fault_capacity::<W>(1))
                    .flat_map(|chunk| {
                        simulate_tile_lanes::<W>(&c, &lc, &chains, &[&test], chunk, opts).remove(0)
                    })
                    .collect();
                if soa != walk {
                    return Err(format!(
                        "{} lanes on {chains:?}: soa {soa:?} != gate-walk {walk:?}",
                        W::LANES
                    ));
                }
            });
            Ok(())
        },
    );
}

/// The tile heights the tiling properties sweep at every lane word.
const HEIGHTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn prop_pattern_lanes_are_independent() {
    // Packing shape-compatible tests into one tile never changes any
    // per-test verdict: a height-P tile detects, for each test, exactly
    // what a height-1 tile over the same faults detects, at every lane
    // word and height.
    check(
        "pattern_lane_independence",
        0x5eed_0007,
        16,
        |g| (small_synth(g), g.word()),
        |(cfg, seed)| shrink_synth(cfg).into_iter().map(|c| (c, *seed)).collect(),
        |(cfg, seed)| {
            let c = cfg.build();
            let sim = GoodSim::new(&c);
            let lc = LevelizedCircuit::build(&c, sim.levelization());
            let tests = compatible_random_tests(&c, &mut Gen::new(*seed), 4, 8);
            let pairs = all_faults(&c);
            let full = ChainMap::full(c.num_dffs());
            let opts = SimOptions::default();
            for_each_lane_word!(W => {
                for p in HEIGHTS {
                    let tile_tests: Vec<&ScanTest> = tests[..p].iter().collect();
                    for chunk in pairs.chunks(tile_fault_capacity::<W>(p)) {
                        let tiled =
                            simulate_tile_lanes::<W>(&c, &lc, &full, &tile_tests, chunk, opts);
                        for (i, test) in tile_tests.iter().enumerate() {
                            let alone =
                                simulate_tile_lanes::<W>(&c, &lc, &full, &[test], chunk, opts);
                            if tiled[i] != alone[0] {
                                return Err(format!(
                                    "{} lanes, test {i}/{p}: tiled {:?} != alone {:?}",
                                    W::LANES,
                                    tiled[i],
                                    alone[0]
                                ));
                            }
                        }
                    }
                }
            });
            Ok(())
        },
    );
}

#[test]
fn prop_ragged_tile_boundaries_agree() {
    // Tile-boundary edge cases: fault chunks that don't divide the word
    // (`faults % W != 0`) under tile heights that don't divide the test
    // count (`patterns % P != 0`) still agree with the serial reference,
    // at every lane word and height.
    check(
        "ragged_tile_boundaries",
        0x5eed_0008,
        16,
        |g| (small_synth(g), g.word()),
        |(cfg, seed)| shrink_synth(cfg).into_iter().map(|c| (c, *seed)).collect(),
        |(cfg, seed)| {
            let c = cfg.build();
            let sim = GoodSim::new(&c);
            let lc = LevelizedCircuit::build(&c, sim.levelization());
            let mut g = Gen::new(*seed);
            let pairs = all_faults(&c);
            let full = ChainMap::full(c.num_dffs());
            let opts = SimOptions::default();
            // p + 1 compatible tests under a height-p cap: runs of p and 1.
            let tests = compatible_random_tests(&c, &mut g, 4, 9);
            let reference: Vec<Vec<FaultId>> = tests
                .iter()
                .map(|t| serial_detections(&sim, t, &pairs))
                .collect();
            for_each_lane_word!(W => {
                for p in HEIGHTS {
                    let tests = &tests[..=p];
                    // A chunk size that leaves a ragged tail with high
                    // probability, capped so the tall run still fits.
                    let chunk_len = g.usize_in(1, tile_fault_capacity::<W>(p) + 1);
                    let mut per_test: Vec<Vec<FaultId>> = vec![Vec::new(); tests.len()];
                    assert_eq!(compatible_run(tests, 0), p + 1, "one compatible run");
                    for (lo, hi) in [(0, p), (p, p + 1)] {
                        let tile_tests: Vec<&ScanTest> = tests[lo..hi].iter().collect();
                        for chunk in pairs.chunks(chunk_len) {
                            let tiled =
                                simulate_tile_lanes::<W>(&c, &lc, &full, &tile_tests, chunk, opts);
                            for (i, det) in tiled.into_iter().enumerate() {
                                per_test[lo + i].extend(det);
                            }
                        }
                    }
                    if per_test[..] != reference[..=p] {
                        return Err(format!(
                            "{} lanes x{p}, chunk {chunk_len}: ragged tiles diverge from serial",
                            W::LANES
                        ));
                    }
                }
            });
            Ok(())
        },
    );
}

#[test]
fn prop_limited_scans_compose() {
    // Shifting j then k equals shifting j+k with concatenated fill.
    check(
        "limited_scans_compose",
        0x5eed_0005,
        64,
        |g| {
            let n = g.usize_in(2, 24);
            let j = g.usize_in(1, n);
            let k = g.usize_in(1, n - j + 1);
            (g.bools(n), j, k, g.word())
        },
        no_shrink,
        |(state, j, k, fill_seed)| {
            let (j, k) = (*j, *k);
            let fill = Gen::new(*fill_seed).bools(j + k);
            let mut two_step = state.clone();
            let mut out = ops::limited_scan_bools(&mut two_step, j, &fill[..j]);
            out.extend(ops::limited_scan_bools(&mut two_step, k, &fill[j..]));
            let mut one_step = state.clone();
            let out_one = ops::limited_scan_bools(&mut one_step, j + k, &fill);
            if two_step != one_step {
                return Err(format!("states diverge: {two_step:?} vs {one_step:?}"));
            }
            if out != out_one {
                return Err(format!("scan-out diverges: {out:?} vs {out_one:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn prop_full_length_limited_scan_is_full_scan() {
    // A limited scan of the full chain length replaces the state exactly
    // like a complete scan operation.
    check(
        "full_length_limited_scan",
        0x5eed_0009,
        64,
        |g| {
            let n = g.usize_in(1, 24);
            (g.bools(n), g.bools(n))
        },
        no_shrink,
        |(state, fill)| {
            let n = state.len();
            let mut limited = state.clone();
            let out_limited = ops::limited_scan_bools(&mut limited, n, fill);
            let mut full = state.clone();
            let new: Vec<bool> = fill.iter().rev().copied().collect();
            let out_full = ops::full_scan_bools(&mut full, &new);
            if limited != full {
                return Err(format!("states diverge: {limited:?} vs {full:?}"));
            }
            if out_limited != out_full {
                return Err(format!(
                    "scan-out diverges: {out_limited:?} vs {out_full:?}"
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn prop_procedure1_invariants() {
    // Procedure 1 never touches test content, only schedules; every shift
    // fits the chain at an interior unit; and the whole derivation is
    // deterministic in (seeds, I, D1).
    let c = random_limited_scan::benchmarks::s27();
    check(
        "procedure1_invariants",
        0x5eed_000a,
        32,
        |g| (g.usize_in(1, 50) as u64, g.usize_in(1, 12) as u32, g.word()),
        no_shrink,
        |&(i, d1, seed)| {
            let cfg = RlsConfig::new(4, 8, 8).with_seeds(SeedSequence::new(seed));
            let ts0 = generate_ts0(&c, &cfg);
            let d2 = cfg.d2(c.num_dffs());
            let a = derive_test_set(&ts0, &cfg, i, d1, d2);
            if a != derive_test_set(&ts0, &cfg, i, d1, d2) {
                return Err("derivation is not deterministic".into());
            }
            for (t, (derived, base)) in a.iter().zip(&ts0).enumerate() {
                if derived.scan_in != base.scan_in || derived.vectors != base.vectors {
                    return Err(format!("test {t}: content changed"));
                }
                if let Some(s) = derived
                    .shifts
                    .iter()
                    .find(|s| s.amount > c.num_dffs() || s.at < 1 || s.at >= derived.len())
                {
                    return Err(format!("test {t}: shift {s:?} out of range"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn prop_lfsr_jump_ahead() {
    // LFSR jump-ahead by matrix power equals stepping, from any state.
    check(
        "lfsr_jump_ahead",
        0x5eed_000b,
        64,
        |g| {
            let degree = g.usize_in(2, 24) as u32;
            let seed = (g.usize_in(1, 1000) as u64 & ((1 << degree) - 1)).max(1);
            (degree, seed, g.usize_in(0, 500) as u32)
        },
        |&(degree, seed, steps)| {
            shrink_usize_min(steps as usize, 0)
                .into_iter()
                .map(|s| (degree, seed, s as u32))
                .collect()
        },
        |&(degree, seed, steps)| {
            let mut lfsr = FibonacciLfsr::max_length(degree, seed).map_err(|e| e.to_string())?;
            let jumped = BitMatrix::fibonacci_step(&lfsr)
                .pow(u128::from(steps))
                .apply(lfsr.state());
            for _ in 0..steps {
                lfsr.step();
            }
            if jumped != lfsr.state() {
                return Err(format!("jumped {jumped:#x} != stepped {:#x}", lfsr.state()));
            }
            Ok(())
        },
    );
}

#[test]
fn prop_dropping_is_sound() {
    // Fault dropping is sound: a test set detects the same fault set
    // whether simulated with dropping (engine) or fault-by-fault.
    check(
        "dropping_is_sound",
        0x5eed_000c,
        16,
        |g| {
            let mut cfg = small_synth(g);
            cfg.dffs = cfg.dffs.max(1);
            (cfg, g.word())
        },
        |(cfg, seed)| {
            shrink_synth(cfg)
                .into_iter()
                .filter(|c| c.dffs > 0)
                .map(|c| (c, *seed))
                .collect()
        },
        |(cfg, seed)| {
            let c = cfg.build();
            let mut g = Gen::new(*seed);
            let tests: Vec<ScanTest> = (0..4).map(|_| random_test(&c, &mut g, 3)).collect();
            let mut engine = FaultSimulator::new(&c);
            engine.run_tests(&tests);
            let mut dropped = engine.detected().to_vec();
            dropped.sort_unstable();
            // Reference: each representative simulated against every
            // test individually (no dropping).
            let sim = GoodSim::new(&c);
            let goods: Vec<_> = tests.iter().map(|t| sim.simulate_test(t)).collect();
            let universe = engine.universe();
            let mut reference: Vec<FaultId> = engine
                .collapsed()
                .representatives()
                .iter()
                .copied()
                .filter(|&id| {
                    let fault = universe.fault(id);
                    tests
                        .iter()
                        .zip(&goods)
                        .any(|(t, good)| traces_differ(good, &sim.simulate_faulty(t, fault)))
                })
                .collect();
            reference.sort_unstable();
            if dropped != reference {
                return Err(format!(
                    "dropping {dropped:?} != fault-by-fault {reference:?}"
                ));
            }
            Ok(())
        },
    );
}
