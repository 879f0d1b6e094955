//! Seeded violation of the cross-shard fan-out discipline: a cross-shard
//! batch holds one admission gate per touched shard for its whole round,
//! so gates must be taken in ascending shard index. `fan_out_descending`
//! walks the split back to front and asserts the *wrong* (descending)
//! order — two batches covering overlapping shard sets from opposite
//! ends deadlock. It must be flagged; `fan_out` below follows the real
//! `ReliableDevice` shape and must be positively verified instead.

impl ReliableDevice {
    fn fan_out_descending(&self, split: Vec<(usize, Vec<usize>)>) {
        let mut posted = Vec::new();
        for (s, idxs) in split.into_iter().rev() {
            debug_assert!(posted.last().is_none_or(|&(prev, _)| prev > s));
            let gate = self.gates[s].lock();
            self.workers[s].mailbox.post(idxs);
            posted.push((s, gate));
        }
        drop(posted);
    }

    fn fan_out(&self, mut split: Vec<(usize, Vec<usize>)>) {
        let mut held = Vec::new();
        for &(s, _) in &split {
            debug_assert!(held.last().is_none_or(|&(prev, _)| prev < s));
            let gate = self.gates[s].lock();
            held.push((s, gate));
        }
        let last = split.pop();
        for (s, idxs) in &split {
            self.workers[*s].mailbox.post(idxs);
        }
        self.run_here(last);
        self.collect_answers(split);
        drop(held);
    }
}
