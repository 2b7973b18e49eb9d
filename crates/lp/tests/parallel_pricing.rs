//! Thread-count invariance of the parallel pricing path.
//!
//! The candidate-list refill scan cuts large windows into fixed contiguous
//! sections, one scoped worker per section, and merges the per-section
//! bounded top lists under a total order on the candidate values. That merge is partition-invariant (every global
//! top-`K` element is in its own section's top-`K`), so the pivot
//! sequence — and therefore every solver output — must be byte-identical
//! at any `SolverOptions::threads`. These tests pin that contract: not
//! "close objectives", but identical iteration counts, identical pricing
//! counters, bit-identical objectives and primal values, and equal bases.

use coflow_lp::{Basis, Cmp, Model, Solution, SolverOptions};

/// A degenerate transportation LP: `n x n` assignment-like structure with
/// equality supplies and slack-bearing demand caps. Dual-degenerate enough
/// to exercise candidate-list churn, Bland fallbacks, and refill scans.
fn transport(n: usize) -> Model {
    let mut m = Model::new();
    let mut vars = vec![vec![]; n];
    for (i, row) in vars.iter_mut().enumerate() {
        for j in 0..n {
            row.push(m.add_nonneg(((i * 7 + j * 13) % 10) as f64 + 1.0, format!("x{i}_{j}")));
        }
    }
    let total: f64 = (0..n).map(|i| 1.0 + (i % 3) as f64).sum();
    for (i, row) in vars.iter().enumerate() {
        let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
        m.add_row(Cmp::Eq, 1.0 + (i % 3) as f64, &terms);
    }
    for j in 0..n {
        let terms: Vec<_> = vars.iter().map(|row| (row[j], 1.0)).collect();
        m.add_row(Cmp::Le, total / n as f64 + 1.0, &terms);
    }
    m
}

/// A small mixed-row LP family parameterized by a seed: bounded variables,
/// all three row senses, deterministic pseudo-random data.
fn mixed(seed: u64, n: usize, rows: usize) -> Model {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut m = Model::new();
    let vars: Vec<_> = (0..n)
        .map(|j| {
            m.add_var(
                next() * 10.0 - 5.0,
                0.0,
                0.5 + next() * 5.0,
                format!("x{j}"),
            )
        })
        .collect();
    for r in 0..rows {
        let cmp = match r % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .filter(|(j, _)| (j + r) % 3 != 0)
            .map(|(_, &v)| (v, next() * 6.0 - 3.0))
            .collect();
        let rhs = match cmp {
            Cmp::Ge => -(next() * 2.0),
            _ => next() * 8.0,
        };
        m.add_row(cmp, rhs, &terms);
    }
    m
}

fn solve(m: &Model, threads: usize) -> (Solution, Basis) {
    let opts = SolverOptions {
        verify: false,
        threads,
        ..Default::default()
    };
    m.solve_with_basis(&opts).expect("LP must solve")
}

/// Asserts byte-identical solver outputs (not approximate agreement).
fn assert_identical(label: &str, a: &(Solution, Basis), b: &(Solution, Basis), threads: usize) {
    let ctx = format!("{label}: threads={threads} vs 1");
    assert_eq!(
        a.0.objective.to_bits(),
        b.0.objective.to_bits(),
        "{ctx}: objective bits differ"
    );
    assert_eq!(a.0.stats.iterations, b.0.stats.iterations, "{ctx}: pivots");
    assert_eq!(
        a.0.stats.pricing_full_scans, b.0.stats.pricing_full_scans,
        "{ctx}: full scans"
    );
    assert_eq!(
        a.0.stats.pricing_list_hits, b.0.stats.pricing_list_hits,
        "{ctx}: list hits"
    );
    assert_eq!(a.0.values.len(), b.0.values.len(), "{ctx}: value count");
    for (j, (x, y)) in a.0.values.iter().zip(&b.0.values).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: value {j} bits differ");
    }
    assert_eq!(a.1, b.1, "{ctx}: bases differ");
}

/// Candidate pricing: identical pivot sequence and outputs at 1/2/4/8
/// threads on a degenerate transport LP (heavy list churn + refills).
#[test]
fn candidate_pricing_thread_invariant_on_transport() {
    let m = transport(24);
    let base = solve(&m, 1);
    assert!(base.0.stats.pricing_list_hits > 0, "list must serve pivots");
    assert_eq!(base.0.stats.threads, 1);
    for threads in [2, 4, 8] {
        let sol = solve(&m, threads);
        assert_eq!(sol.0.stats.threads, threads, "threads stat must record");
        assert_identical("candidate/transport", &sol, &base, threads);
    }
}

/// Candidate pricing stays thread-invariant across a family of mixed-row
/// LPs (bounded variables, all row senses).
#[test]
fn candidate_pricing_thread_invariant_on_mixed_lps() {
    for seed in 0..12u64 {
        let m = mixed(seed, 40, 18);
        let base = solve(&m, 1);
        for threads in [2, 4, 8] {
            let sol = solve(&m, threads);
            assert_identical(&format!("candidate/mixed[{seed}]"), &sol, &base, threads);
        }
    }
}

/// A sparse LP with `2n` working rows, `2n·deg` columns, and two
/// nonzeros per column: supply rows (equalities) each reach `deg`
/// pseudo-randomly spread demand rows (capacity caps). Wide enough at
/// `n = 512` for the refill window (`4m` columns) to reach
/// `PAR_SCAN_MIN_COLS = 4096` and split into worker sections, yet cheap to
/// solve because every column is a 2-nonzero network arc.
fn sparse_transport(n: usize, deg: usize) -> Model {
    let mut m = Model::new();
    let supply: Vec<_> = (0..n)
        .map(|i| m.add_row(Cmp::Eq, 1.0 + (i % 3) as f64, &[]))
        .collect();
    let demand: Vec<_> = (0..n).map(|_| m.add_row(Cmp::Le, 3.0, &[])).collect();
    for (i, &s) in supply.iter().enumerate() {
        for k in 0..deg {
            let j = (i * 31 + k * 97 + k * k * 13) % n;
            let cost = ((i * 7 + j * 13 + k) % 10) as f64 + 1.0;
            m.add_column(
                cost,
                0.0,
                f64::INFINITY,
                format!("x{i}_{k}"),
                &[(s, 1.0), (demand[j], 1.0)],
            );
        }
    }
    m
}

/// Candidate pricing on an LP with ≥ 1024 working rows, so the refill
/// window covers ≥ 4096 columns and the scan is genuinely cut into
/// multiple worker sections: the sectioned merge must reproduce the serial
/// scan bit-for-bit.
#[test]
fn candidate_pricing_sectioned_refill_matches_serial() {
    let m = sparse_transport(512, 8);
    let base = solve(&m, 1);
    assert!(base.0.stats.rows >= 1024, "rows {}", base.0.stats.rows);
    assert!(base.0.stats.cols >= 4096, "cols {}", base.0.stats.cols);
    for threads in [2, 4, 8] {
        let sol = solve(&m, threads);
        assert_identical("candidate/sectioned", &sol, &base, threads);
    }
}

/// Under the logical clock the rendered trace depends only on the
/// *sequence* of recording calls, and the pivot sequence is already
/// thread-invariant (the tests above), so the whole JSONL trace — spans,
/// accumulators, counters, histograms — must be byte-identical at any
/// thread count.
#[test]
fn logical_clock_traces_byte_identical_across_threads() {
    let trace_at = |threads: usize| {
        let m = transport(24);
        let mut chain = coflow_lp::WarmChain::new();
        chain.obs().set_mode(coflow_obs::ClockMode::Logical);
        let opts = SolverOptions {
            verify: false,
            threads,
            ..Default::default()
        };
        chain.solve(&m, &opts).expect("LP must solve");
        chain.take_trace().render_jsonl()
    };
    let base = trace_at(1);
    assert!(!base.is_empty(), "trace must not be empty");
    for threads in [2, 4] {
        let t = trace_at(threads);
        assert_eq!(t, base, "threads={threads}: trace bytes differ from serial");
    }
}
