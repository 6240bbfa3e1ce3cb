//! `repro_model` — bounded exhaustive model checking of the
//! session/server protocol, self-tested end to end.
//!
//! Five stages, each gated:
//!
//! 1. **Session sweep** — BFS over every reachable session state for a
//!    grid of electrode counts and retry budgets; every invariant
//!    (stuck-state, budget monotonicity, backoff termination,
//!    checkpoint closure) must hold on every state.
//! 2. **Flagship server run** — the 3-session × 2-shard chaos config
//!    explored to fixpoint under DPOR-style pruning with empirical
//!    commutation checks; gates on ≥ 100 000 canonical states, zero
//!    violations and no truncation.
//! 3. **Full-vs-pruned twin** — the same small universe explored with
//!    *every* shard interleaving and with the pruned schedule; the full
//!    run proves the single-digest theorem (`terminal_states ==
//!    terminal_classes`), the twin quantifies the pruning ratio.
//! 4. **Seeded mutations** — two deliberate protocol bugs
//!    (`SkipAttemptIncrement`, `SilentShed`) must each be caught, and
//!    the minimal counterexample must survive a disk round-trip and
//!    replay deterministically to its recorded violation
//!    ([`TraceArtifact::verify`]).
//! 5. **Reproducibility** — the flagship run is executed twice; every
//!    statistic must match bit-for-bit.
//!
//! Writes `BENCH_9.json` (`--json <path>` overrides) with canonical
//! states/sec, dedup ratio and interleaving counts, plus the two
//! counterexample artifacts (`model_cx_session.json`,
//! `model_cx_server.json`). Any other argument is a usage error (exit
//! 2) before anything is explored.

use std::time::Instant;

use bios_model::{
    explore, ExploreLimits, ExploreReport, Interleave, MRequest, MVerdict, Mutation, ServerModel,
    ServerModelConfig, SessionModel, SessionModelConfig, TraceArtifact,
};
use bios_platform::RetryPolicy;
use bios_server::ServiceTier;

/// Retry policy for model universes: small budgets keep the state space
/// bounded while still exercising backoff, exhaustion and quarantine.
fn model_retry(max_retries: usize) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        quarantine_after: 2,
        ..RetryPolicy::default()
    }
}

/// The flagship bounded universe: three sessions over two shards with
/// the full verdict alphabet and a chaos menu of stalls and mid-session
/// aborts.
fn flagship_config() -> ServerModelConfig {
    let session = SessionModelConfig::new(1, model_retry(1)).with_alphabet(vec![
        MVerdict::Pass,
        MVerdict::Fail,
        MVerdict::Err,
    ]);
    let requests = vec![
        MRequest {
            device: 0,
            tier: ServiceTier::Stat,
        },
        MRequest {
            device: 1,
            tier: ServiceTier::Routine,
        },
        MRequest {
            device: 2,
            tier: ServiceTier::BestEffort,
        },
    ];
    ServerModelConfig::new(2, requests, session)
        .with_stall_choices(vec![0, 1, 3])
        .with_abort_choices(vec![None, Some(2), Some(5)])
}

/// The small universe used for the full-vs-pruned twin: two sessions,
/// two shards, binary verdicts, no chaos.
fn twin_config(interleave: Interleave) -> ServerModelConfig {
    let session = SessionModelConfig::new(1, model_retry(1))
        .with_alphabet(vec![MVerdict::Pass, MVerdict::Fail]);
    let requests = vec![
        MRequest {
            device: 0,
            tier: ServiceTier::Stat,
        },
        MRequest {
            device: 1,
            tier: ServiceTier::Routine,
        },
    ];
    ServerModelConfig::new(2, requests, session).with_interleave(interleave)
}

/// The `BENCH_9.json` path: `--json <path>` is the only argument.
fn parse_args(args: &[String]) -> Result<String, String> {
    match args {
        [] => Ok("BENCH_9.json".to_string()),
        [flag, path] if flag == "--json" => Ok(path.clone()),
        _ => Err(format!("unrecognised arguments {args:?}")),
    }
}

fn explore_server(cfg: ServerModelConfig, limits: &ExploreLimits) -> Option<ExploreReport> {
    let built = cfg
        .session
        .platform()
        .and_then(|platform| ServerModel::new(&platform, cfg).map(|m| explore(&m, limits)));
    match built {
        Ok(report) => Some(report),
        Err(e) => {
            println!("  FAIL server model rejected its config: {e}");
            None
        }
    }
}

/// Writes `artifact` to `path`, reads it back, and replays it against
/// its own record.
fn replay_from_disk(artifact: &TraceArtifact, path: &str) -> Result<(), String> {
    let json = artifact.to_json().map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| e.to_string())?;
    let back = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let replayed = TraceArtifact::from_json(&back).and_then(|a| a.verify());
    replayed.map(|_| ()).map_err(|e| e.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = match parse_args(&args) {
        Ok(path) => path,
        Err(msg) => {
            eprintln!("repro_model: {msg}\nusage: repro_model [--json PATH]");
            std::process::exit(2);
        }
    };
    bios_bench::banner("repro_model — protocol model checker self-test");
    let mut failures = 0u32;
    let mut check = |name: &str, ok: bool| {
        println!("  {} {}", if ok { "PASS" } else { "FAIL" }, name);
        if !ok {
            failures += 1;
        }
    };
    let limits = ExploreLimits::default();

    // 1. Session-level sweep: electrodes × retry budgets, full verdict
    //    alphabet. Checkpoint closure is re-proved on every state.
    let mut session_states = 0u64;
    for electrodes in 1..=2u8 {
        for retries in 1..=2usize {
            let cfg = SessionModelConfig::new(electrodes, model_retry(retries))
                .with_alphabet(vec![MVerdict::Pass, MVerdict::Fail, MVerdict::Err]);
            let name = format!("session sweep e={electrodes} r={retries} is exhaustive and clean");
            match SessionModel::new(cfg) {
                Ok(model) => {
                    let report = explore(&model, &limits);
                    session_states += report.stats.states;
                    check(
                        &name,
                        report.violation.is_none()
                            && !report.truncated
                            && report.stats.terminal_states > 0,
                    );
                }
                Err(e) => check(&format!("{name}: {e}"), false),
            }
        }
    }
    println!("    session sweep: {session_states} canonical states");

    // 2 + 5. Flagship chaos run, twice: exhaustive, clean, large, and
    //    bit-identical between runs.
    let t = Instant::now();
    let first = explore_server(flagship_config(), &limits);
    let flagship_s = t.elapsed().as_secs_f64();
    let second = explore_server(flagship_config(), &limits);
    let (states, edges, dedup_hits, interleavings, states_per_sec) = match (&first, &second) {
        (Some(a), Some(b)) => {
            check(
                "flagship run is clean and untruncated",
                a.violation.is_none() && !a.truncated,
            );
            check(
                "flagship run covers >= 1e5 canonical states",
                a.stats.states >= 100_000,
            );
            check(
                "flagship terminal digests are one-per-chaos-class",
                a.stats.terminal_states == a.stats.terminal_classes,
            );
            check("rerun reproduces every statistic", a.stats == b.stats);
            println!(
                "    flagship: {} states, {} edges, {} dedup hits, {} terminals in {:.2}s ({:.0} states/s)",
                a.stats.states,
                a.stats.edges,
                a.stats.dedup_hits,
                a.stats.terminal_states,
                flagship_s,
                a.stats.states as f64 / flagship_s,
            );
            (
                a.stats.states,
                a.stats.edges,
                a.stats.dedup_hits,
                a.stats.terminal_states,
                a.stats.states as f64 / flagship_s,
            )
        }
        _ => {
            check("flagship run constructs", false);
            (0, 0, 0, 0, 0.0)
        }
    };

    // 3. Full-vs-pruned twin: every interleaving of the small universe
    //    reaches one digest per chaos class; the pruned schedule reaches
    //    the same classes with fewer states.
    let full = explore_server(twin_config(Interleave::Full), &limits);
    let pruned = explore_server(twin_config(Interleave::Pruned), &limits);
    let (full_states, pruned_states, full_dedup) = match (&full, &pruned) {
        (Some(f), Some(p)) => {
            check(
                "full interleaving run is clean (single-digest theorem)",
                f.violation.is_none() && !f.truncated,
            );
            check(
                "full run: one terminal digest per chaos class",
                f.stats.terminal_states == f.stats.terminal_classes,
            );
            check(
                "pruned run reaches the same terminal classes",
                p.violation.is_none() && p.stats.terminal_classes == f.stats.terminal_classes,
            );
            check(
                "pruning shrinks the interleaving space",
                p.stats.states < f.stats.states,
            );
            println!(
                "    twin: full {} states vs pruned {} states ({:.2}x)",
                f.stats.states,
                p.stats.states,
                f.stats.states as f64 / p.stats.states as f64,
            );
            (f.stats.states, p.stats.states, f.stats.dedup_hits)
        }
        _ => {
            check("twin runs construct", false);
            (0, 0, 0)
        }
    };

    // 4. Seeded mutations: each deliberate bug is caught, and its
    //    counterexample artifact survives disk and replays to the
    //    recorded violation.
    let session_cx = {
        let cfg = SessionModelConfig::new(1, model_retry(1))
            .with_mutation(Mutation::SkipAttemptIncrement);
        let found = SessionModel::new(cfg.clone())
            .ok()
            .and_then(|m| explore(&m, &limits).violation);
        found.map(|cx| TraceArtifact::Session {
            config: cfg,
            counterexample: cx,
        })
    };
    let server_cx = {
        let session =
            SessionModelConfig::new(1, model_retry(1)).with_mutation(Mutation::SilentShed);
        let requests: Vec<MRequest> = (0..3)
            .map(|d| MRequest {
                device: d * 2, // all route to shard 0 to force a shed
                tier: ServiceTier::BestEffort,
            })
            .collect();
        let mut cfg = ServerModelConfig::new(2, requests, session);
        cfg.server = cfg.server.with_shed_watermark(1);
        let found = explore_server(cfg.clone(), &limits).and_then(|r| r.violation);
        found.map(|cx| TraceArtifact::Server {
            config: cfg,
            counterexample: cx,
        })
    };
    for (mutation, level, path, caught) in [
        (
            "SkipAttemptIncrement",
            "session",
            "model_cx_session.json",
            session_cx,
        ),
        ("SilentShed", "server", "model_cx_server.json", server_cx),
    ] {
        check(&format!("mutation {mutation} is caught"), caught.is_some());
        let Some(artifact) = caught else { continue };
        match replay_from_disk(&artifact, path) {
            Ok(()) => {
                check(&format!("{level} counterexample replays from disk"), true);
                println!("    {}: {}", path, artifact.describe());
            }
            Err(e) => check(&format!("{level} counterexample replay: {e}"), false),
        }
    }

    let dedup_ratio = if states > 0 {
        dedup_hits as f64 / (states + dedup_hits) as f64
    } else {
        0.0
    };
    let json = format!(
        "{{\n  \"session_sweep_states\": {session_states},\n  \"flagship_states\": {states},\n  \"flagship_edges\": {edges},\n  \"flagship_dedup_hits\": {dedup_hits},\n  \"flagship_dedup_ratio\": {dedup_ratio:.4},\n  \"flagship_terminals\": {interleavings},\n  \"flagship_states_per_sec\": {states_per_sec:.0},\n  \"full_twin_states\": {full_states},\n  \"full_twin_dedup_hits\": {full_dedup},\n  \"pruned_twin_states\": {pruned_states},\n  \"pruning_ratio\": {:.2}\n}}\n",
        if pruned_states > 0 {
            full_states as f64 / pruned_states as f64
        } else {
            0.0
        },
    );
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("    wrote {json_path}"),
        Err(e) => check(&format!("write {json_path}: {e}"), false),
    }

    if failures > 0 {
        println!("{failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("all checks passed");
}
