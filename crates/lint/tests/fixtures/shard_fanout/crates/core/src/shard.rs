//! Seeded violation of the cross-shard fan-out discipline: a cross-shard
//! batch holds one admission gate per touched shard for its whole round,
//! so gates must be taken in ascending shard index. `fan_out_descending`
//! walks the split back to front and asserts the *wrong* (descending)
//! order — two batches covering overlapping shard sets from opposite
//! ends deadlock. It must be flagged; `fan_out` below follows the real
//! `ShardedDevice` shape and must be positively verified instead.

impl ShardedDevice {
    fn fan_out_descending(&self, split: Vec<(usize, Vec<usize>)>) {
        let mut launched = Vec::new();
        for (s, idxs) in split.into_iter().rev() {
            debug_assert!(launched.last().is_none_or(|&(prev, _, _)| prev > s));
            let gate = self.gates[s].lock();
            let handle = self.launch(s, idxs);
            launched.push((s, gate, handle));
        }
        drop(launched);
    }

    fn fan_out(&self, mut split: Vec<(usize, Vec<usize>)>) {
        let mut held = Vec::new();
        for &(s, _) in &split {
            debug_assert!(held.last().is_none_or(|&(prev, _)| prev < s));
            let gate = self.gates[s].lock();
            held.push((s, gate));
        }
        let last = split.pop();
        let workers = self.launch_all(split);
        self.run_here(last);
        self.join_all(workers);
        drop(held);
    }
}
