//! Shuffle semantics: the reduce-side of the wide transformations.
//!
//! Map-side records reach the reduce side one at a time, in global order,
//! through a [`ShuffleSink`]: `reduceByKey` folds each record into its
//! key's accumulator on arrival, every other wide transformation buckets
//! records by shuffle key and then groups, joins, deduplicates, or sorts
//! the buckets. The heap effects (disk traffic, `ShuffledRDD`
//! materialization) are charged by the engine; this is pure record logic.

use mheap::{Key, Payload};
use sparklang::{FnTable, FuncId, Transform, UserFn};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// FxHash-style multiplicative hasher: one rotate-xor-multiply per 8-byte
/// word. Shuffle keys are one or two words, so this is a handful of
/// instructions per insert versus SipHash's full rounds — and unlike
/// `RandomState` it is deterministic across processes, which keeps bucket
/// iteration order (and therefore simulated cost) reproducible.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.write_u64(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Deterministic build-hasher for shuffle-side hash maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A consumer of records in global order: the reduce side of a shuffle,
/// or a plain vector collecting a narrow chain's output. `fns` is passed
/// per record (not held) so a sink can be filled while the engine that
/// owns the function table is busy charging the producing pass.
pub trait RecordSink {
    /// Take the next record.
    fn accept(&mut self, fns: &FnTable, record: Payload);
}

impl RecordSink for Vec<Payload> {
    fn accept(&mut self, _: &FnTable, record: Payload) {
        self.push(record);
    }
}

/// Map-side output grouped by key, in first-appearance order (kept
/// deterministic for reproducible runs).
#[derive(Debug, Clone, Default)]
pub struct Buckets {
    order: Vec<Key>,
    by_key: HashMap<Key, Vec<Payload>, FxBuildHasher>,
}

impl Buckets {
    /// Empty buckets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one record under its shuffle key.
    ///
    /// # Panics
    ///
    /// Panics if the record has no shuffle key (not a pair or scalar).
    pub fn add(&mut self, record: Payload) {
        let key = record.shuffle_key();
        self.by_key
            .entry(key)
            .or_insert_with(|| {
                self.order.push(key);
                Vec::new()
            })
            .push(record);
    }

    /// Number of distinct keys.
    pub fn n_keys(&self) -> usize {
        self.order.len()
    }

    /// Total records across all keys.
    pub fn n_records(&self) -> usize {
        self.by_key.values().map(Vec::len).sum()
    }

    /// Iterate `(key, records)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &[Payload])> + '_ {
        self.order
            .iter()
            .map(move |k| (*k, self.by_key[k].as_slice()))
    }
}

/// `reduceByKey`'s per-key left fold, accumulated as records arrive:
/// each key's accumulator starts at its first record's value and folds
/// every later value in arrival order, with keys in first-appearance
/// order — the fold [`reduce_side`] runs over [`Buckets`], without the
/// per-key record lists.
pub(crate) struct Combiner {
    f: FuncId,
    slot: HashMap<Key, usize, FxBuildHasher>,
    /// `(key of the key's first record, accumulator)` per key.
    accs: Vec<(Rc<Payload>, Payload)>,
}

impl Combiner {
    /// An empty fold under reduce function `f`.
    pub(crate) fn new(f: FuncId) -> Self {
        Combiner {
            f,
            slot: HashMap::default(),
            accs: Vec::new(),
        }
    }

    /// One `(key, accumulator)` pair per key, in first-appearance order.
    pub(crate) fn finish(self) -> Vec<Payload> {
        self.accs
            .into_iter()
            .map(|(k, acc)| Payload::pair_shared(k, Rc::new(acc)))
            .collect()
    }
}

impl RecordSink for Combiner {
    /// # Panics
    ///
    /// Panics if the record has no shuffle key, or if the function id is
    /// not a reduce function.
    fn accept(&mut self, fns: &FnTable, record: Payload) {
        let key = record.shuffle_key();
        let (k, v) = match record {
            Payload::Pair(k, v) => (k, Rc::unwrap_or_clone(v)),
            scalar => (Rc::new(scalar.clone()), scalar),
        };
        match self.slot.get(&key) {
            Some(&i) => {
                let acc = &mut self.accs[i].1;
                *acc = combiner(fns, self.f)(acc, &v);
            }
            None => {
                self.slot.insert(key, self.accs.len());
                self.accs.push((k, v));
            }
        }
    }
}

/// One shuffle input as the reduce side consumes it: folded on arrival
/// for `reduceByKey`, bucketed by key for every other wide
/// transformation. Counts the modelled bytes it was fed, which is what
/// the map side's shuffle write is charged from.
pub struct ShuffleInput {
    bytes: u64,
    state: InputState,
}

enum InputState {
    Combine(Combiner),
    Buckets(Buckets),
}

impl ShuffleInput {
    /// Modelled bytes of every record fed so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl RecordSink for ShuffleInput {
    fn accept(&mut self, fns: &FnTable, record: Payload) {
        self.bytes += record.model_bytes();
        match &mut self.state {
            InputState::Combine(c) => c.accept(fns, record),
            InputState::Buckets(b) => b.add(record),
        }
    }
}

/// The reduce side of one shuffle, fed its map output record by record in
/// global order — one [`ShuffleInput`] per parent (two for
/// [`Transform::Join`]). Feeding records in the order the map side
/// produces them gives exactly the output [`reduce_side`] computes over
/// the same records bucketed first.
pub struct ShuffleSink {
    transform: Transform,
    inputs: Vec<ShuffleInput>,
}

impl ShuffleSink {
    /// An empty reduce side of `transform` over `n_inputs` parents.
    ///
    /// # Panics
    ///
    /// Panics if `transform` is narrow.
    pub fn new(transform: &Transform, n_inputs: usize) -> Self {
        assert!(
            transform.is_wide(),
            "{} is not a wide transformation",
            transform.name()
        );
        let inputs = (0..n_inputs)
            .map(|_| ShuffleInput {
                bytes: 0,
                state: match transform {
                    Transform::ReduceByKey(f) => InputState::Combine(Combiner::new(*f)),
                    _ => InputState::Buckets(Buckets::new()),
                },
            })
            .collect();
        ShuffleSink {
            transform: transform.clone(),
            inputs,
        }
    }

    /// The sink for parent `i`'s records.
    pub fn input(&mut self, i: usize) -> &mut ShuffleInput {
        &mut self.inputs[i]
    }

    /// Run what remains of the reduce side and return its output records.
    ///
    /// # Panics
    ///
    /// Panics as [`reduce_side`] does (a join without two inputs, a
    /// function id of the wrong kind).
    pub fn finish(self, fns: &FnTable) -> Vec<Payload> {
        let mut buckets = Vec::with_capacity(self.inputs.len());
        for input in self.inputs {
            match input.state {
                InputState::Combine(c) => return c.finish(),
                InputState::Buckets(b) => buckets.push(b),
            }
        }
        reduce_side(&self.transform, fns, &buckets[0], buckets.get(1))
    }
}

/// The value of a pair record (or the record itself if not a pair).
fn value_of(record: &Payload) -> Payload {
    match record.as_pair() {
        Some((_, v)) => v.clone(),
        None => record.clone(),
    }
}

/// The key component of a pair record as a payload.
fn key_payload(record: &Payload) -> Payload {
    match record.as_pair() {
        Some((k, _)) => k.clone(),
        None => record.clone(),
    }
}

/// Run the reduce side of `transform` over bucketed map output.
///
/// For [`Transform::Join`], `right` must hold the second input's buckets.
///
/// # Panics
///
/// Panics if `transform` is narrow, if a required function id is of the
/// wrong kind, or if `Join` is invoked without `right`.
pub fn reduce_side(
    transform: &Transform,
    fns: &FnTable,
    left: &Buckets,
    right: Option<&Buckets>,
) -> Vec<Payload> {
    match transform {
        Transform::ReduceByKey(f) => reduce_by_key(fns, *f, left),
        Transform::GroupByKey => group_by_key(left),
        Transform::Distinct => distinct(left),
        Transform::Join => join(left, right.expect("join needs two inputs")),
        Transform::SortByKey => sort_by_key(left),
        other => panic!("{} is not a wide transformation", other.name()),
    }
}

fn combiner(fns: &FnTable, f: FuncId) -> &dyn Fn(&Payload, &Payload) -> Payload {
    match fns.get(f) {
        UserFn::Reduce(f) => f,
        other => panic!("reduceByKey requires a reduce function, got {other:?}"),
    }
}

/// Bucket by bucket through the streaming [`Combiner`]: each bucket holds
/// one key's records in arrival order, so the fold is the same.
fn reduce_by_key(fns: &FnTable, f: FuncId, buckets: &Buckets) -> Vec<Payload> {
    let mut fold = Combiner::new(f);
    for (_, records) in buckets.iter() {
        for r in records {
            fold.accept(fns, r.clone());
        }
    }
    fold.finish()
}

fn group_by_key(buckets: &Buckets) -> Vec<Payload> {
    buckets
        .iter()
        .map(|(_, records)| {
            let values: Vec<Payload> = records.iter().map(value_of).collect();
            Payload::pair(key_payload(&records[0]), Payload::list(values))
        })
        .collect()
}

fn distinct(buckets: &Buckets) -> Vec<Payload> {
    let mut seen = HashSet::with_hasher(FxBuildHasher::default());
    let mut out = Vec::new();
    for (_, records) in buckets.iter() {
        for r in records {
            if seen.insert(r.fingerprint()) {
                out.push(r.clone());
            }
        }
    }
    out
}

fn sort_by_key(buckets: &Buckets) -> Vec<Payload> {
    let mut keyed: Vec<(Key, &[Payload])> = buckets.iter().collect();
    keyed.sort_by_key(|(k, _)| *k);
    keyed
        .into_iter()
        .flat_map(|(_, records)| records.iter().cloned())
        .collect()
}

fn join(left: &Buckets, right: &Buckets) -> Vec<Payload> {
    let mut out = Vec::new();
    for (key, lrecords) in left.iter() {
        let Some(rrecords) = right.by_key.get(&key) else {
            continue;
        };
        for l in lrecords {
            for r in rrecords {
                out.push(Payload::pair(
                    key_payload(l),
                    Payload::pair(value_of(l), value_of(r)),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklang::ProgramBuilder;

    fn keyed(k: i64, v: i64) -> Payload {
        Payload::keyed(k, Payload::Long(v))
    }

    fn bucket(records: Vec<Payload>) -> Buckets {
        let mut b = Buckets::new();
        for r in records {
            b.add(r);
        }
        b
    }

    #[test]
    fn reduce_by_key_sums() {
        let mut b = ProgramBuilder::new("t");
        let add = b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap() + c.as_long().unwrap()));
        let (_, fns) = b.finish();
        let buckets = bucket(vec![keyed(1, 10), keyed(2, 5), keyed(1, 7)]);
        let out = reduce_side(&Transform::ReduceByKey(add), &fns, &buckets, None);
        assert_eq!(out, vec![keyed(1, 17), keyed(2, 5)]);
    }

    #[test]
    fn group_by_key_builds_lists() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let buckets = bucket(vec![keyed(1, 10), keyed(1, 20)]);
        let out = reduce_side(&Transform::GroupByKey, &fns, &buckets, None);
        assert_eq!(out.len(), 1);
        let (k, v) = out[0].as_pair().unwrap();
        assert_eq!(k.as_long(), Some(1));
        assert!(matches!(v, Payload::List(items) if items.len() == 2));
    }

    #[test]
    fn distinct_dedupes_whole_records() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let buckets = bucket(vec![keyed(1, 10), keyed(1, 10), keyed(1, 11)]);
        let out = reduce_side(&Transform::Distinct, &fns, &buckets, None);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn join_is_a_cross_product_per_key() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let left = bucket(vec![keyed(1, 10), keyed(1, 11), keyed(2, 20)]);
        let right = bucket(vec![keyed(1, 100), keyed(3, 300)]);
        let out = reduce_side(&Transform::Join, &fns, &left, Some(&right));
        // Key 1: 2x1 combinations; key 2 and 3 have no match.
        assert_eq!(out.len(), 2);
        let (k, v) = out[0].as_pair().unwrap();
        assert_eq!(k.as_long(), Some(1));
        let (l, r) = v.as_pair().unwrap();
        assert_eq!(l.as_long(), Some(10));
        assert_eq!(r.as_long(), Some(100));
    }

    #[test]
    fn sort_by_key_orders_records() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let buckets = bucket(vec![keyed(5, 50), keyed(1, 10), keyed(3, 30), keyed(1, 11)]);
        let out = reduce_side(&Transform::SortByKey, &fns, &buckets, None);
        let keys: Vec<i64> = out
            .iter()
            .map(|r| r.as_pair().unwrap().0.as_long().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "not a wide transformation")]
    fn narrow_transform_rejected() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        reduce_side(&Transform::Values, &fns, &Buckets::new(), None);
    }

    #[test]
    fn sink_folds_like_bucketed_reduce() {
        let mut b = ProgramBuilder::new("t");
        let f = b.reduce_fn(|a, c| {
            Payload::Long(a.as_long().unwrap().wrapping_mul(31) + c.as_long().unwrap())
        });
        let (_, fns) = b.finish();
        let records = vec![
            keyed(2, 1),
            keyed(1, 2),
            keyed(2, 3),
            keyed(1, 4),
            keyed(2, 5),
        ];
        let mut sink = ShuffleSink::new(&Transform::ReduceByKey(f), 1);
        for r in records.clone() {
            sink.input(0).accept(&fns, r);
        }
        assert_eq!(sink.input(0).bytes(), 5 * 32);
        let streamed = sink.finish(&fns);
        let bucketed = reduce_side(&Transform::ReduceByKey(f), &fns, &bucket(records), None);
        assert_eq!(streamed, bucketed);
        assert_eq!(
            streamed,
            vec![keyed(2, (31 + 3) * 31 + 5), keyed(1, 31 * 2 + 4)]
        );
    }

    #[test]
    fn double_and_long_keys_bucket_apart() {
        let d = Payload::pair(Payload::Double(2.5), Payload::Long(0));
        let l = keyed(2.5f64.to_bits() as i64, 1);
        assert_eq!(bucket(vec![d, l]).n_keys(), 2);
    }

    #[test]
    fn sort_by_key_orders_negative_doubles() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let rec = |k: f64| Payload::pair(Payload::Double(k), Payload::Unit);
        let buckets = bucket(vec![rec(-1.0), rec(2.0), rec(-2.0), rec(0.5)]);
        let out = reduce_side(&Transform::SortByKey, &fns, &buckets, None);
        let keys: Vec<f64> = out
            .iter()
            .map(|r| r.as_pair().unwrap().0.as_double().unwrap())
            .collect();
        assert_eq!(keys, vec![-2.0, -1.0, 0.5, 2.0]);
    }

    #[test]
    fn buckets_preserve_insertion_order() {
        let buckets = bucket(vec![keyed(5, 0), keyed(3, 0), keyed(5, 1)]);
        let keys: Vec<Key> = buckets.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![Key::Long(5), Key::Long(3)]);
        assert_eq!(buckets.n_keys(), 2);
        assert_eq!(buckets.n_records(), 3);
    }
}
