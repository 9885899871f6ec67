//! Property tests for the shuffle semantics: conservation and algebraic
//! laws of the wide transformations.

use mheap::Payload;
use proptest::prelude::*;
use sparklang::{FnTable, FuncId, ProgramBuilder, Transform, UserFn};
use sparklet::{reduce_side, Buckets, RecordSink, ShuffleSink};

fn bucket(records: &[(i64, i64)]) -> Buckets {
    let mut b = Buckets::new();
    for (k, v) in records {
        b.add(Payload::keyed(*k, Payload::Long(*v)));
    }
    b
}

/// The bucket-then-fold `reduce_by_key` that the streaming combiner
/// replaced, kept verbatim as the reference: per key in first-appearance
/// order, a left fold from the first record's value.
fn reference_reduce_by_key(fns: &FnTable, f: FuncId, buckets: &Buckets) -> Vec<Payload> {
    let combine = match fns.get(f) {
        UserFn::Reduce(f) => f,
        other => panic!("reduceByKey requires a reduce function, got {other:?}"),
    };
    let mut out = Vec::with_capacity(buckets.n_keys());
    for (_, records) in buckets.iter() {
        let mut acc = value_of(&records[0]);
        for r in &records[1..] {
            acc = combine(&acc, &value_of(r));
        }
        out.push(Payload::pair(key_payload(&records[0]), acc));
    }
    out
}

fn value_of(record: &Payload) -> Payload {
    match record.as_pair() {
        Some((_, v)) => v.clone(),
        None => record.clone(),
    }
}

fn key_payload(record: &Payload) -> Payload {
    match record.as_pair() {
        Some((k, _)) => k.clone(),
        None => record.clone(),
    }
}

/// A random shuffle record: a `(Long key, Long)` or `(Sym key, Long)`
/// pair, or a bare `Long` (its own key and value).
fn shuffle_record() -> impl Strategy<Value = Payload> {
    prop_oneof![
        (0i64..12, any::<i64>()).prop_map(|(k, v)| Payload::keyed(k, Payload::Long(v))),
        (0u64..6, any::<i64>()).prop_map(|(sym, v)| {
            Payload::pair(Payload::Text { sym, len: 4 }, Payload::Long(v))
        }),
        (0i64..12).prop_map(Payload::Long),
    ]
}

proptest! {
    /// The streaming reduceByKey fold equals the bucket-then-fold
    /// reference under a reduce that is neither commutative nor
    /// associative, so any change of fold order or grouping shows.
    #[test]
    fn streaming_fold_matches_bucketed_reference(
        records in prop::collection::vec(shuffle_record(), 0..96),
    ) {
        let mut b = ProgramBuilder::new("t");
        let f = b.reduce_fn(|a, c| {
            Payload::Long(a.as_long().unwrap().wrapping_mul(31).wrapping_add(c.as_long().unwrap()))
        });
        let (_, fns) = b.finish();
        let transform = Transform::ReduceByKey(f);
        let mut buckets = Buckets::new();
        let mut sink = ShuffleSink::new(&transform, 1);
        for r in &records {
            buckets.add(r.clone());
            sink.input(0).accept(&fns, r.clone());
        }
        let expect = reference_reduce_by_key(&fns, f, &buckets);
        let bytes: u64 = records.iter().map(Payload::model_bytes).sum();
        prop_assert_eq!(sink.input(0).bytes(), bytes);
        prop_assert_eq!(&sink.finish(&fns), &expect);
        prop_assert_eq!(&reduce_side(&transform, &fns, &buckets, None), &expect);
    }

    /// reduceByKey with addition preserves the total sum and emits one
    /// record per distinct key.
    #[test]
    fn reduce_by_key_conserves_sums(records in prop::collection::vec((0i64..16, -100i64..100), 0..64)) {
        let mut b = ProgramBuilder::new("t");
        let add = b.reduce_fn(|a, c| {
            Payload::Long(a.as_long().unwrap() + c.as_long().unwrap())
        });
        let (_, fns) = b.finish();
        let buckets = bucket(&records);
        let out = reduce_side(&Transform::ReduceByKey(add), &fns, &buckets, None);

        let expect_total: i64 = records.iter().map(|(_, v)| v).sum();
        let got_total: i64 = out
            .iter()
            .map(|r| r.as_pair().unwrap().1.as_long().unwrap())
            .sum();
        prop_assert_eq!(expect_total, got_total);

        let distinct_keys: std::collections::HashSet<i64> =
            records.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(out.len(), distinct_keys.len());
    }

    /// groupByKey loses no records: list lengths sum to the input size.
    #[test]
    fn group_by_key_conserves_records(records in prop::collection::vec((0i64..16, any::<i64>()), 0..64)) {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let buckets = bucket(&records);
        let out = reduce_side(&Transform::GroupByKey, &fns, &buckets, None);
        let total: usize = out
            .iter()
            .map(|r| match r.as_pair().unwrap().1 {
                Payload::List(items) => items.len(),
                other => panic!("expected list, got {other:?}"),
            })
            .sum();
        prop_assert_eq!(total, records.len());
    }

    /// distinct is idempotent and never grows the input.
    #[test]
    fn distinct_is_idempotent(records in prop::collection::vec((0i64..8, 0i64..4), 0..64)) {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let once = reduce_side(&Transform::Distinct, &fns, &bucket(&records), None);
        prop_assert!(once.len() <= records.len());
        let mut again_in = Buckets::new();
        for r in &once {
            again_in.add(r.clone());
        }
        let twice = reduce_side(&Transform::Distinct, &fns, &again_in, None);
        prop_assert_eq!(once, twice);
    }

    /// join emits exactly |L_k| * |R_k| records per key.
    #[test]
    fn join_counts_are_products(
        left in prop::collection::vec((0i64..6, any::<i64>()), 0..32),
        right in prop::collection::vec((0i64..6, any::<i64>()), 0..32),
    ) {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let lb = bucket(&left);
        let rb = bucket(&right);
        let out = reduce_side(&Transform::Join, &fns, &lb, Some(&rb));
        let mut expect = 0usize;
        for k in 0..6i64 {
            let l = left.iter().filter(|(lk, _)| *lk == k).count();
            let r = right.iter().filter(|(rk, _)| *rk == k).count();
            expect += l * r;
        }
        prop_assert_eq!(out.len(), expect);
    }

    /// Buckets count exactly what goes in.
    #[test]
    fn buckets_conserve(records in prop::collection::vec((any::<i64>(), any::<i64>()), 0..64)) {
        let b = bucket(&records);
        prop_assert_eq!(b.n_records(), records.len());
        let distinct: std::collections::HashSet<i64> = records.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(b.n_keys(), distinct.len());
    }
}
