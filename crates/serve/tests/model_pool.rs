//! Model-checked interleavings of [`aqua_serve::pool::BoundedQueue`].
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg aqua_model_check" cargo test -p aqua-serve --test model_pool
//! ```
//!
//! Under that cfg the `aqua_telemetry::sync` facade resolves to the `interlock`
//! deterministic scheduler, so `Explorer::exhaustive()` enumerates every
//! interleaving of the queue's lock/condvar protocol. The invariants:
//! no deadlock (in particular, no lost wakeup between `try_push`'s notify
//! and `pop`'s wait), conservation (every accepted item is drained exactly
//! once), and FIFO order.

#![cfg(aqua_model_check)]

use std::collections::BTreeSet;
use std::sync::Arc;

use aqua_serve::pool::BoundedQueue;
use interlock::{thread, Explorer};

#[test]
fn enqueue_shed_drain_conserves_items() {
    let report = Explorer::exhaustive().run(|| {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));

        // Capacity 1 and two back-to-back pushes: whether the second push is
        // shed depends on whether the consumer drains between them.
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut shed = BTreeSet::new();
                for item in [1u32, 2u32] {
                    if let Err(item) = q.try_push(item) {
                        shed.insert(item);
                    }
                }
                shed
            })
        };

        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop() {
                    got.push(item);
                }
                got
            })
        };

        let shed = producer.join().unwrap();
        // The producer is done; close releases the consumer once drained.
        q.close();
        let drained = consumer.join().unwrap();

        assert!(
            drained.windows(2).all(|w| w[0] < w[1]),
            "FIFO order violated: {drained:?}"
        );
        let drained_set: BTreeSet<u32> = drained.iter().copied().collect();
        assert_eq!(
            drained_set.len(),
            drained.len(),
            "an item was drained twice"
        );
        assert!(
            drained_set.is_disjoint(&shed),
            "item both shed and drained: drained {drained:?}, shed {shed:?}"
        );
        let mut all = drained_set;
        all.extend(&shed);
        assert_eq!(
            all,
            BTreeSet::from([1, 2]),
            "conservation violated: drained {drained:?}, shed {shed:?}"
        );
    });
    println!(
        "model_pool::enqueue_shed_drain: {} schedules ({} distinct), exhausted={}",
        report.schedules, report.distinct, report.exhausted
    );
    assert!(
        report.distinct >= 100,
        "only {} distinct schedules",
        report.distinct
    );
}

#[test]
fn fifo_order_survives_concurrent_drain() {
    let report = Explorer::exhaustive().run(|| {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));

        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                // Capacity 2 and a single producer: both pushes are accepted.
                q.try_push(10).unwrap();
                q.try_push(20).unwrap();
            })
        };
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop() {
                    got.push(item);
                }
                got
            })
        };

        producer.join().unwrap();
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![10, 20], "FIFO order violated");
    });
    println!(
        "model_pool::fifo_order: {} schedules ({} distinct), exhausted={}",
        report.schedules, report.distinct, report.exhausted
    );
    assert!(
        report.distinct >= 100,
        "only {} distinct schedules",
        report.distinct
    );
}

#[test]
fn close_wakes_blocked_consumers() {
    // Consumers parked in `pop` on an empty queue must always observe the
    // close — a lost `notify_all` here would be a deadlock under some
    // schedule, which the checker reports as a failure.
    let report = Explorer::exhaustive().with_max_schedules(50_000).run(|| {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        q.close();
        for c in consumers {
            assert_eq!(c.join().unwrap(), None, "consumer saw phantom item");
        }
    });
    println!(
        "model_pool::close_wakes: {} schedules ({} distinct), exhausted={}",
        report.schedules, report.distinct, report.exhausted
    );
    assert!(
        report.distinct >= 100,
        "only {} distinct schedules",
        report.distinct
    );
}
