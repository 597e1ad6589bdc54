//! Exit-code contract of the `revpebble` binary:
//!
//! - `0` — success;
//! - `1` — runtime failure (infeasible budget, timeout, missing input);
//! - `2` — invalid usage or configuration, whether rejected by the flag
//!   parser (unknown flag) or by the `PebblingSession` plan (semantic
//!   combination) — the CLI and the library reject identically.

use std::process::{Command, Output};

fn revpebble(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_revpebble"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn success_exits_zero() {
    let output = revpebble(&["pebble", "paper", "--pebbles", "4"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("pebbles: 4"), "{stdout}");
}

#[test]
fn session_errors_exit_two_minimize_with_pebbles() {
    let output = revpebble(&["pebble", "paper", "--minimize", "--pebbles", "4"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(
        stderr.contains("--minimize searches for the budget"),
        "{stderr}"
    );
}

#[test]
fn session_errors_exit_two_share_without_portfolio() {
    let output = revpebble(&["pebble", "paper", "--minimize", "--share-clauses"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(
        stderr.contains("--share-clauses needs --portfolio"),
        "{stderr}"
    );
}

#[test]
fn session_errors_exit_two_share_without_minimize() {
    let output = revpebble(&[
        "pebble",
        "paper",
        "--pebbles",
        "4",
        "--portfolio",
        "2",
        "--share-clauses",
    ]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(
        stderr.contains("--share-clauses only applies to the minimize search"),
        "{stderr}"
    );
}

#[test]
fn session_errors_exit_two_missing_budget() {
    let output = revpebble(&["pebble", "paper"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(stderr.contains("no budget given"), "{stderr}");
}

#[test]
fn session_errors_exit_two_zero_quota() {
    let output = revpebble(&["pebble", "paper", "--pebbles", "4", "--quota", "0"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(
        stderr.contains("conflict quota of 0 is exhausted"),
        "{stderr}"
    );
}

#[test]
fn session_errors_exit_two_zero_worker_pool() {
    for args in [
        &["batch", "paper", "--workers", "0"][..],
        &["pebble", "paper", "--pebbles", "4", "--workers", "0"][..],
    ] {
        let output = revpebble(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = stderr(&output);
        assert!(
            stderr.contains("needs at least one worker"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn batch_serves_many_inputs_as_one_json_report() {
    // One worker serializes the three sessions, so the repeated `paper`
    // input is a *guaranteed* cache hit (the first run has inserted its
    // answer before the third starts).
    let output = revpebble(&[
        "batch",
        "paper",
        "c17",
        "paper",
        "--workers",
        "1",
        "--quota",
        "5000000",
        "--pebbles",
        "4",
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json = stdout.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for key in [
        "\"workers\":1",
        "\"sessions\":[",
        "\"name\":\"paper\"",
        "\"name\":\"c17\"",
        "\"cache_hits\":1",
        "\"cache_misses\":2",
        // Every batch entry carries its own fault-containment verdict:
        // a clean run has a null stop_reason and zero re-runs.
        "\"stop_reason\":null",
        "\"retries\":0",
    ] {
        assert!(json.contains(key), "{key} missing in {json}");
    }
    // One JSON object, one line: machine-readable stdout.
    assert_eq!(stdout.trim().lines().count(), 1, "{stdout}");
}

#[test]
fn an_injected_panic_is_contained_and_named_in_the_batch_report() {
    // `--fault-plan exec.job:panic:0` kills the first session job on
    // entry. The batch survives: exit 1 (a failed entry), not a crash,
    // and the entry names the panic in its stop_reason.
    let output = revpebble(&[
        "batch",
        "paper",
        "--workers",
        "1",
        "--fault-plan",
        "exec.job:panic:0",
    ]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("\"stop_reason\":\"worker-panicked\""),
        "{stdout}"
    );
}

#[test]
fn retries_recover_an_injected_panic() {
    // The fail point fires on the first visit only; `--retries 1`
    // re-runs the session, which then completes cleanly — entry-level
    // retries counts the re-run.
    let output = revpebble(&[
        "batch",
        "paper",
        "--workers",
        "1",
        "--retries",
        "1",
        "--fault-plan",
        "exec.job:panic:0",
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"stop_reason\":null"), "{stdout}");
    assert!(stdout.contains("\"retries\":1"), "{stdout}");
    assert!(stdout.contains("\"minimum\":4"), "{stdout}");
}

#[test]
fn a_bad_fault_plan_exits_two() {
    let output = revpebble(&["batch", "paper", "--fault-plan", "nowhere:panic:0"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(stderr.contains("bad --fault-plan"), "{stderr}");
}

#[test]
fn an_exhausted_quota_fails_the_batch_entry() {
    // One conflict is nowhere near enough to minimize the paper DAG, so
    // the session stops on its quota and the batch reports the failure.
    let output = revpebble(&["batch", "paper", "--workers", "1", "--quota", "1"]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"stop_reason\":\"quota\""), "{stdout}");
}

#[test]
fn parse_errors_exit_two_with_usage() {
    let output = revpebble(&["pebble", "paper", "--bogus"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(stderr.contains("unknown flag"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn runtime_failures_exit_one() {
    // 2 pebbles are below the paper example's structural lower bound of
    // 3: a valid configuration whose *search* fails.
    let output = revpebble(&["pebble", "paper", "--pebbles", "2"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = stderr(&output);
    assert!(stderr.contains("infeasible"), "{stderr}");
}

#[test]
fn fixed_budget_failures_name_their_cause() {
    // Below the structural lower bound, alone or raced: the most definite
    // failure wins, and it names the bound.
    for extra in [&[][..], &["--portfolio", "2"][..]] {
        let mut args = vec!["pebble", "paper", "--pebbles", "2"];
        args.extend_from_slice(extra);
        let output = revpebble(&args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = stderr(&output);
        assert!(
            stderr.contains("2 pebbles are infeasible (lower bound 3)"),
            "{args:?}: {stderr}"
        );
    }
    // A fixed budget is one probe under `--timeout`: 16 pebbles on the
    // 59-node b3_m4 SLP are not decided in a second.
    let output = revpebble(&["pebble", "b3_m4", "--pebbles", "16", "--timeout", "1"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = stderr(&output);
    assert!(stderr.contains("timed out while trying"), "{stderr}");
    assert!(stderr.contains("budget 16 timed out"), "{stderr}");
}

#[test]
fn json_report_carries_the_schema_keys() {
    let output = revpebble(&["pebble", "paper", "--minimize", "--timeout", "30", "--json"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json = stdout.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for key in [
        "\"engine\":",
        "\"minimum\":4",
        "\"floor\":",
        "\"optimal\":",
        "\"workers\":[",
        "\"events_emitted\":",
    ] {
        assert!(json.contains(key), "{key} missing in {json}");
    }
    // JSON mode keeps stdout machine-readable: exactly one line.
    assert_eq!(stdout.trim().lines().count(), 1, "{stdout}");
}

#[test]
fn probe_events_stream_to_stderr() {
    let output = revpebble(&["pebble", "paper", "--minimize", "--timeout", "30"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stderr = stderr(&output);
    assert!(stderr.contains("trying budget"), "{stderr}");
    assert!(
        stderr.contains("search finished: best budget 4"),
        "{stderr}"
    );
}

#[test]
fn minimize_says_whether_its_budget_is_proven_optimal() {
    // The incremental engine refutes budget 3 over the whole step range,
    // so 4 is proven optimal, not just the best budget found.
    let output = revpebble(&["minimize", "c17", "--incremental", "--timeout", "60"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("budget: 4 pebbles, proven optimal"),
        "{stdout}"
    );
}
