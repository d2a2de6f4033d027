//! Fault injection: SIGKILL the server mid-campaign — mid-round, at a
//! scenario boundary, and with a corrupted cache snapshot — restart it on
//! the same journal directory, and prove the final frontiers are
//! **bit-identical** to an uninterrupted single-process run.
//!
//! The kill moment is deliberately jittered by the server's pid so repeated
//! CI runs sample different interrupt points; correctness must not depend
//! on where the axe lands.

mod common;

use common::{expected_points, outcome_points, scratch, spec_one, spec_two_budgets, ServerProc};
use fast_serve::{JobEvent, Response};

/// Reads streamed responses until `stop` says the axe should fall (or the
/// job finishes first — possible on a fast machine, and handled by every
/// caller). Returns the events seen and whether Done arrived.
fn read_until(
    client: &mut fast_serve::Client,
    mut stop: impl FnMut(&[JobEvent]) -> bool,
) -> (Vec<JobEvent>, bool) {
    let mut events = Vec::new();
    loop {
        match client.read_response().expect("event stream") {
            Response::Event { event, .. } => {
                events.push(event);
                if stop(&events) {
                    return (events, false);
                }
            }
            Response::Done { .. } => return (events, true),
            other => panic!("unexpected mid-stream response: {other:?}"),
        }
    }
}

fn rounds_seen(events: &[JobEvent]) -> usize {
    events.iter().filter(|e| matches!(e, JobEvent::Round { .. })).count()
}

fn scenarios_finished(events: &[JobEvent]) -> usize {
    events.iter().filter(|e| matches!(e, JobEvent::ScenarioFinished { .. })).count()
}

#[test]
fn sigkill_mid_round_then_restart_is_bit_identical() {
    let spec = spec_one("resume-mid", common::b0(), 96, 4);
    let expected = expected_points(&spec);
    let journal = scratch("resume-mid");

    let mut server = ServerProc::spawn(&journal, &["--max-inflight", "1"]);
    let mut client = server.client();
    client.set_read_timeout(None).expect("stream timeout off");
    let (id, _) = client.submit(&spec, true).expect("accepted");

    // Kill somewhere inside the study: after a pid-jittered handful of
    // rounds, with ~24 rounds of runway. Killing right after a Round event
    // lands mid-flight of the *next* round with high probability.
    let cut = 2 + (server.pid() as usize % 3);
    let (_events, done) = read_until(&mut client, |evs| rounds_seen(evs) >= cut);
    server.kill();

    // Restart on the same journal: the job re-enters the queue, resumes
    // from its checkpoint, and must finish exactly as if never interrupted.
    let restarted = ServerProc::spawn(&journal, &["--max-inflight", "1"]);
    let mut client2 = restarted.client();
    client2.set_read_timeout(None).expect("stream timeout off");
    let outcome = client2.watch(id).expect("resumed job completes");
    assert_eq!(
        outcome_points(&outcome),
        expected,
        "killed-and-resumed frontiers must be bit-identical to an uninterrupted run \
         (job finished before the kill: {done})"
    );
}

#[test]
fn sigkill_at_scenario_boundary_replays_completed_scenarios_warm() {
    let spec = spec_two_budgets("resume-boundary", 48, 4);
    let expected = expected_points(&spec);
    let journal = scratch("resume-boundary");

    let mut server = ServerProc::spawn(&journal, &["--max-inflight", "1"]);
    let mut client = server.client();
    client.set_read_timeout(None).expect("stream timeout off");
    let (id, _) = client.submit(&spec, true).expect("accepted");

    // Kill right after the first scenario completes (+ pid-jittered 0-1
    // further rounds into the second scenario).
    let jitter = server.pid() as usize % 2;
    let (_events, done) = read_until(&mut client, |evs| {
        scenarios_finished(evs) >= 1
            && rounds_seen(evs) >= scenarios_finished(evs) * (48 / 4) + jitter
    });
    server.kill();

    let restarted = ServerProc::spawn(&journal, &["--max-inflight", "1"]);
    let mut client2 = restarted.client();
    client2.set_read_timeout(None).expect("stream timeout off");
    let outcome = client2.watch(id).expect("resumed job completes");
    assert_eq!(
        outcome_points(&outcome),
        expected,
        "boundary-killed frontiers must be bit-identical (job finished pre-kill: {done})"
    );

    // The completed-then-replayed scenario must be answered almost
    // entirely from the persisted cache snapshot: >90% fuse-tier hits.
    // (If the whole job finished before the kill, the restart replays the
    // journaled result instead and streams no per-scenario events — the
    // bit-identity assertion above already covered that path.)
    let replayed: Vec<_> = outcome
        .events
        .iter()
        .filter_map(|e| match e {
            JobEvent::ScenarioFinished { index: 0, staged, .. } => Some(staged.fuse),
            _ => None,
        })
        .collect();
    if let Some(cache) = replayed.first() {
        assert!(
            cache.hit_rate() > 0.9,
            "replayed scenario should be >90% cache hits, got {:.0}% ({}/{} hits/misses)",
            100.0 * cache.hit_rate(),
            cache.hits,
            cache.misses
        );
    } else {
        // The job either finished before the kill, or the restarted worker
        // replayed scenario 0 before the watcher attached; both paths are
        // fully covered by the bit-identity assertion above.
        eprintln!("note: scenario-0 replay events not observed (done pre-kill: {done})");
    }
}

#[test]
fn corrupt_cache_snapshot_degrades_to_cold_with_a_streamed_warning() {
    let spec = spec_one("resume-corrupt", common::b0(), 48, 4);
    let expected = expected_points(&spec);
    let journal = scratch("resume-corrupt");

    let mut server = ServerProc::spawn(&journal, &["--max-inflight", "1"]);
    let mut client = server.client();
    client.set_read_timeout(None).expect("stream timeout off");
    let (id, _) = client.submit(&spec, true).expect("accepted");
    let (_events, _done) = read_until(&mut client, |evs| rounds_seen(evs) >= 1);
    server.kill();

    // Vandalize both cache-tier snapshots in the job directory: the
    // restart must detect the damage (checksums), warn *through the
    // per-job sink onto the event stream*, and recompute cold —
    // bit-identically, because the determinism contract doesn't care about
    // cache temperature.
    let job_dir = journal.join("jobs").join(format!("job-{id:06}"));
    for name in ["eval_cache.bin", "eval_cache.op.bin"] {
        let path = job_dir.join(name);
        if path.exists() {
            std::fs::write(&path, b"definitely not a snapshot").expect("corrupt snapshot");
        }
    }

    let restarted = ServerProc::spawn(&journal, &["--max-inflight", "1"]);
    let mut client2 = restarted.client();
    client2.set_read_timeout(None).expect("stream timeout off");
    let outcome = client2.watch(id).expect("job completes despite corrupt snapshot");
    assert_eq!(
        outcome_points(&outcome),
        expected,
        "cold recompute after snapshot corruption must still be bit-identical"
    );
    assert!(
        outcome.warnings.iter().any(|w| w.contains("snapshot ignored")),
        "the degrade-to-cold warning must reach the job's event stream, got {:?}",
        outcome.warnings
    );
}
