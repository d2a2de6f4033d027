//! Persistence: a daemon's job directories together hold every evaluation
//! its jobs computed, each entry once. Each new cache entry is appended by
//! the job that saves next, so a job directory holds what that job added to
//! the shared warm evaluator — not a copy of everything the daemon knew.

mod common;

use common::{b0, expected_points, outcome_points, scratch, spec_one, ServerProc};
use fast_arch::Budget;
use fast_core::{Evaluator, Objective, SweepRunner, SweepSession};

#[test]
fn job_directories_hold_each_op_entry_exactly_once() {
    let first = spec_one("persist-a", b0(), 32, 4);
    let mut second = spec_one("persist-b", b0(), 32, 4);
    second.config.seed = first.config.seed + 1;
    let journal = scratch("persist");

    // One worker: the second job starts on the shared evaluator the first
    // one warmed.
    let server = ServerProc::spawn(&journal, &["--max-inflight", "1"]);
    let mut client = server.client();
    client.set_read_timeout(None).expect("stream timeout off");
    let mut ids = Vec::new();
    for spec in [&first, &second] {
        let outcome = client.run(spec).expect("served job completes");
        assert_eq!(outcome_points(&outcome), expected_points(spec), "{}", spec.name);
        ids.push(outcome.id);
    }
    drop(server);

    let mut per_job = Vec::new();
    for id in ids {
        let cache = journal.join("jobs").join(format!("job-{id:06}")).join("eval_cache.bin");
        let fresh = Evaluator::new(Vec::new(), Objective::Qps, Budget::paper_default());
        let report = fresh.load_eval_cache(&cache);
        assert_eq!(report.warning, None, "job {id}: finished checkpoints load cleanly");
        assert!(report.op_loaded > 0, "job {id} computed op entries of its own");
        per_job.push(report.op_loaded);
    }

    // The same two specs on one in-process evaluator: its op tier is the
    // union the daemon computed.
    let reference = Evaluator::new(Vec::new(), Objective::Qps, Budget::paper_default());
    for spec in [&first, &second] {
        let _ = SweepRunner::new(spec.matrix.clone(), spec.config.clone())
            .run_session(SweepSession { evaluator: Some(&reference), ..SweepSession::default() });
    }
    assert_eq!(
        per_job.iter().sum::<usize>(),
        reference.op_cache_len(),
        "job directories {per_job:?} must hold each op entry once, none lost"
    );
}
