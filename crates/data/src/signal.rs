//! The spatiotemporal signal container.
//!
//! Follows PGT's *static graph with temporal signal* representation (§2.2):
//! a fixed weighted graph plus a `[entries, nodes, features]` array of node
//! features over time. This is the object both preprocessing pipelines
//! (standard SWA and index-batching) consume.
//!
//! Since PR 8 the feature array sits behind [`SignalStorage`]: the default
//! `InMemory` backend is the historical dense tensor (all reads zero-copy
//! views, bit-identical behavior), while the `Chunked` backend streams the
//! entry axis from an on-disk columnar file through a bounded LRU cache so
//! resident bytes stay `O(chunks_cached)` instead of `O(entries)`.

use crate::storage::{RowStore, SignalStorage, StorageSpec};
use st_graph::Adjacency;
use st_tensor::Tensor;
use std::borrow::Cow;

/// A static graph whose node features evolve over time.
#[derive(Debug, Clone)]
pub struct StaticGraphTemporalSignal {
    /// Node features behind a storage backend, logical shape
    /// `[entries, nodes, features]`.
    pub storage: SignalStorage,
    /// The (static) weighted adjacency.
    pub adjacency: Adjacency,
}

impl StaticGraphTemporalSignal {
    /// Construct from a dense tensor (in-memory backend), validating shapes.
    pub fn new(data: Tensor, adjacency: Adjacency) -> Self {
        Self::with_storage(SignalStorage::InMemory(data.contiguous()), adjacency)
    }

    /// Construct over an explicit storage backend, validating shapes.
    pub fn with_storage(storage: SignalStorage, adjacency: Adjacency) -> Self {
        assert_eq!(
            storage.dims().len(),
            3,
            "signal must be [entries, nodes, features]"
        );
        assert_eq!(
            storage.dims()[1],
            adjacency.num_nodes(),
            "node count must match adjacency"
        );
        StaticGraphTemporalSignal { storage, adjacency }
    }

    /// The dense feature tensor of the in-memory backend. Panics for a
    /// chunked signal — streaming consumers go through
    /// [`StaticGraphTemporalSignal::storage`] instead.
    pub fn data(&self) -> &Tensor {
        self.storage.dense()
    }

    /// True when the signal streams from on-disk chunks.
    pub fn is_chunked(&self) -> bool {
        self.storage.is_chunked()
    }

    /// Re-house the signal under another storage backend (e.g. convert an
    /// in-memory signal into bounded-cache chunks before training).
    pub fn rechunk(&self, spec: StorageSpec) -> StaticGraphTemporalSignal {
        StaticGraphTemporalSignal {
            storage: self.storage.rechunk(spec),
            adjacency: self.adjacency.clone(),
        }
    }

    /// The signal a training run consumes: the time-of-day feature
    /// appended when `time_period` is set
    /// ([`StaticGraphTemporalSignal::with_time_feature`]), then re-housed
    /// under `storage` when that streams from disk and the signal does not
    /// yet ([`StaticGraphTemporalSignal::rechunk`]). An in-memory `storage`
    /// never pulls a chunked signal back into RAM. Borrows `self` when
    /// neither step applies, so the common in-memory path copies nothing.
    pub fn prepared(&self, time_period: Option<usize>, storage: StorageSpec) -> Cow<'_, Self> {
        let mut sig = Cow::Borrowed(self);
        if let Some(p) = time_period {
            sig = Cow::Owned(sig.with_time_feature(p));
        }
        if storage.is_chunked() && !sig.is_chunked() {
            sig = Cow::Owned(sig.rechunk(storage));
        }
        sig
    }

    /// Number of time entries.
    pub fn entries(&self) -> usize {
        self.storage.dims()[0]
    }

    /// Number of graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.storage.dims()[1]
    }

    /// Number of node features.
    pub fn num_features(&self) -> usize {
        self.storage.dims()[2]
    }

    /// The graph state at time `t` as a `[nodes, features]` tensor — a
    /// zero-copy view for the in-memory backend, a cached chunk read for
    /// the chunked one.
    pub fn graph_at(&self, t: usize) -> Tensor {
        match &self.storage {
            SignalStorage::InMemory(data) => data.select(0, t).expect("t in range"),
            SignalStorage::Chunked(_) => {
                let (rows, _) = self.storage.read_rows_quoted(t..t + 1);
                rows.reshape([self.num_nodes(), self.num_features()])
                    .expect("one entry")
            }
        }
    }

    /// Raw data size in bytes at the given element width (float64 in the
    /// paper's Table 1; float32 in our measured runs). Each factor widens
    /// to `u64` *before* multiplying, so city-scale signals don't overflow
    /// `usize` arithmetic on 32-bit targets.
    pub fn size_bytes(&self, elem_bytes: usize) -> u64 {
        self.entries() as u64
            * self.num_nodes() as u64
            * self.num_features() as u64
            * elem_bytes as u64
    }

    /// Append a time-of-day feature column (stage 1 of the paper's Fig. 3:
    /// "added data from including time-of-day information as a transposed
    /// matrix"). `period` is the number of entries in one day/week cycle.
    ///
    /// The in-memory path is byte-for-byte the historical implementation;
    /// a chunked signal is rewritten chunk-by-chunk on the same backend, so
    /// peak memory stays at one chunk instead of the whole signal.
    pub fn with_time_feature(&self, period: usize) -> StaticGraphTemporalSignal {
        let n = self.num_nodes();
        let f = self.num_features();
        let augment = |first_entry: usize, rows: &Tensor, out: &mut Vec<f32>| {
            let src = rows.as_slice().expect("contiguous rows");
            for (dt, entry) in src.chunks_exact(n * f).enumerate() {
                let t = first_entry + dt;
                let tod = (t % period) as f32 / period as f32;
                for node_row in entry.chunks_exact(f) {
                    out.extend_from_slice(node_row);
                    out.push(tod);
                }
            }
        };
        let storage = match &self.storage {
            SignalStorage::InMemory(data) => {
                let e = self.entries();
                let mut out = Vec::with_capacity(e * n * (f + 1));
                augment(0, &data.contiguous(), &mut out);
                SignalStorage::InMemory(Tensor::from_vec(out, [e, n, f + 1]).expect("numel"))
            }
            SignalStorage::Chunked(store) => {
                let dims = [self.entries(), n, f + 1];
                let mut w = crate::storage::ChunkedWriter::create(&dims, store.spec());
                store.for_each_chunk(|first, rows| {
                    let mut out = Vec::with_capacity(rows.dim(0) * n * (f + 1));
                    augment(first, rows, &mut out);
                    w.push_rows(&out);
                });
                SignalStorage::Chunked(std::sync::Arc::new(w.finish()))
            }
        };
        StaticGraphTemporalSignal {
            storage,
            adjacency: self.adjacency.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::ChunkedSpec;

    fn tiny_signal() -> StaticGraphTemporalSignal {
        let adj = Adjacency::from_dense(2, vec![1.0, 0.5, 0.5, 1.0]);
        let data = Tensor::arange(2 * 2).reshape([2, 2, 1]).unwrap();
        StaticGraphTemporalSignal::new(data, adj)
    }

    #[test]
    fn dimensions() {
        let s = tiny_signal();
        assert_eq!(s.entries(), 2);
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.num_features(), 1);
        assert_eq!(s.size_bytes(8), 32);
    }

    #[test]
    fn size_bytes_widens_before_multiplying() {
        // 70k entries × 9k nodes × 8 features × 8 bytes ≈ 40 GB — overflows
        // a 32-bit usize product but must report exactly in u64.
        let e = 70_000u64;
        let n = 9_000u64;
        let f = 8u64;
        // Build a tiny signal and check the arithmetic shape of size_bytes
        // directly (we cannot allocate 40 GB in a test).
        let s = tiny_signal();
        assert_eq!(s.size_bytes(8), 2 * 2 * 8);
        // The formula must be pure u64 math end to end.
        assert_eq!(e * n * f * 8, 40_320_000_000u64);
        assert!(e * n * f * 8 > u32::MAX as u64);
    }

    #[test]
    fn graph_at_is_a_view() {
        let s = tiny_signal();
        let g = s.graph_at(1);
        assert_eq!(g.dims(), &[2, 1]);
        assert_eq!(g.to_vec(), vec![2.0, 3.0]);
        assert!(g.shares_storage(s.data()), "must be zero-copy");
    }

    #[test]
    fn chunked_graph_at_matches_dense() {
        let adj = Adjacency::from_dense(3, vec![1.0; 9]);
        let data = Tensor::arange(7 * 3 * 2).reshape([7, 3, 2]).unwrap();
        let dense = StaticGraphTemporalSignal::new(data, adj);
        let chunked = dense.rechunk(StorageSpec::Chunked(ChunkedSpec::new(2)));
        assert!(chunked.is_chunked());
        for t in 0..7 {
            assert_eq!(chunked.graph_at(t).to_vec(), dense.graph_at(t).to_vec());
        }
    }

    #[test]
    fn time_feature_appends_normalized_phase() {
        let s = tiny_signal();
        let aug = s.with_time_feature(2);
        assert_eq!(aug.num_features(), 2);
        // t=0 -> phase 0.0; t=1 -> phase 0.5.
        assert_eq!(aug.data().at(&[0, 0, 1]), 0.0);
        assert_eq!(aug.data().at(&[1, 0, 1]), 0.5);
        // Original feature preserved.
        assert_eq!(aug.data().at(&[1, 1, 0]), 3.0);
    }

    #[test]
    fn time_feature_in_memory_is_unchanged_bitwise() {
        // Pin the in-memory path against the historical whole-tensor
        // implementation: identical output bits, entry by entry.
        let adj = Adjacency::from_dense(4, vec![0.5; 16]);
        let data = Tensor::arange(11 * 4 * 3).reshape([11, 4, 3]).unwrap();
        let s = StaticGraphTemporalSignal::new(data.clone(), adj);
        let aug = s.with_time_feature(5);

        // Historical reference implementation (pre-PR-8, verbatim).
        let (e, n, f) = (11usize, 4usize, 3usize);
        let src = data.to_vec();
        let mut want = Vec::with_capacity(e * n * (f + 1));
        for t in 0..e {
            let tod = (t % 5) as f32 / 5.0;
            for node in 0..n {
                let base = (t * n + node) * f;
                want.extend_from_slice(&src[base..base + f]);
                want.push(tod);
            }
        }
        let got = aug.data().to_vec();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn time_feature_chunked_matches_in_memory_bitwise() {
        let adj = Adjacency::from_dense(3, vec![0.25; 9]);
        let data = Tensor::arange(13 * 3 * 2).reshape([13, 3, 2]).unwrap();
        let dense = StaticGraphTemporalSignal::new(data, adj);
        let chunked = dense.rechunk(StorageSpec::Chunked(ChunkedSpec::new(4)));
        let a = dense.with_time_feature(6);
        let b = chunked.with_time_feature(6);
        assert!(b.is_chunked(), "stays on the chunked backend");
        let av = a.data().to_vec();
        let bv = b.storage.to_tensor().to_vec();
        assert_eq!(av.len(), bv.len());
        for (x, y) in av.iter().zip(&bv) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn prepared_borrows_unless_a_step_applies() {
        let dense = tiny_signal();
        let chunked_spec = StorageSpec::Chunked(ChunkedSpec::new(1));
        assert!(matches!(
            dense.prepared(None, StorageSpec::InMemory),
            Cow::Borrowed(_)
        ));
        let chunked = dense.rechunk(chunked_spec);
        assert!(matches!(
            chunked.prepared(None, chunked_spec),
            Cow::Borrowed(_)
        ));
        // An in-memory target never densifies a chunked signal.
        assert!(chunked.prepared(None, StorageSpec::InMemory).is_chunked());
        let both = dense.prepared(Some(2), chunked_spec);
        assert!(both.is_chunked());
        assert_eq!(both.num_features(), 2);
        assert_eq!(
            both.storage.to_tensor().to_vec(),
            dense.with_time_feature(2).data().to_vec()
        );
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn mismatched_adjacency_panics() {
        let adj = Adjacency::from_dense(3, vec![0.0; 9]);
        let data = Tensor::zeros([2, 2, 1]);
        StaticGraphTemporalSignal::new(data, adj);
    }
}
