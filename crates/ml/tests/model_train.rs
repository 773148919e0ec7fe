//! Model-checked interleavings of [`aqua_ml::work::WorkQueue`] — the claim
//! counter behind `par_map_indexed`, the one parallel map of the workspace.
//! It has three callers: the corpus build (`DatasetBuilder::build`), the
//! junction-bank fit (`MultiOutputModel::fit`) and the campaign render
//! (`aqua_campaign::render`).
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg aqua_model_check" cargo test -p aqua-ml --test model_train
//! ```
//!
//! Invariant: across every interleaving of the workers' `fetch_add` claims,
//! each index is claimed by exactly one worker and none is skipped — which
//! is what makes the corpus, the trained bank and the rendered trace
//! identical for any thread count.

#![cfg(aqua_model_check)]

use std::collections::BTreeSet;
use std::sync::Arc;

use aqua_ml::work::WorkQueue;
use interlock::{thread, Explorer};

#[test]
fn every_output_claimed_exactly_once() {
    const OUTPUTS: usize = 3;
    let report = Explorer::exhaustive().with_max_schedules(50_000).run(|| {
        let queue = Arc::new(WorkQueue::new(OUTPUTS));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut claimed = Vec::new();
                    while let Some(v) = queue.claim() {
                        claimed.push(v);
                    }
                    claimed
                })
            })
            .collect();

        let mut all = Vec::new();
        for w in workers {
            let claimed = w.join().unwrap();
            // Within one worker, claims are strictly increasing: the queue
            // never hands an index back.
            assert!(
                claimed.windows(2).all(|w| w[0] < w[1]),
                "worker claims went backwards: {claimed:?}"
            );
            all.extend(claimed);
        }
        let distinct: BTreeSet<usize> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "an output was claimed twice");
        assert_eq!(
            distinct,
            (0..OUTPUTS).collect::<BTreeSet<_>>(),
            "an output was skipped"
        );
        assert_eq!(queue.claim(), None, "drained queue claimed again");
    });
    println!(
        "model_train::claim_once: {} schedules ({} distinct), exhausted={}",
        report.schedules, report.distinct, report.exhausted
    );
    assert!(
        report.distinct >= 100,
        "only {} distinct schedules",
        report.distinct
    );
}
