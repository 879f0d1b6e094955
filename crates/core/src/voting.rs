//! Majority consensus voting (§3.1, Figures 3 and 4).
//!
//! Every block copy carries a version number; reads and writes proceed only
//! when the gathered votes reach the configured quorum. Block-level
//! replication buys two simplifications the paper highlights:
//!
//! * **No recovery traffic.** A repaired site rejoins immediately
//!   ([`repair`] is free); quorum intersection guarantees that any quorum
//!   contains a current copy, so stale local copies are harmless.
//! * **Lazy per-block repair.** A coordinator that discovers (from the
//!   votes) that its copy of the requested block is stale fetches just that
//!   block from the highest-versioned voter and installs it — recovering
//!   "only those blocks which have been modified", on access.

use crate::backend::{self, BlockVec, Fold, ScatterRequest, ScatterSpec, SiteVec, WriteBatch};
use crate::obs_hooks;
use crate::transport::{ServerCluster, Transport};
use crate::wire::WireResponse;
use blockrep_net::{MsgKind, OpClass};
use blockrep_obs::{event, span};
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceError, DeviceResult, SiteId, SiteState,
    VersionNumber,
};

/// What the origin's own leg reads of a block to vote with: its version (a
/// write), or its version and the data it serves if current (a read).
trait Own {
    fn version(&self) -> VersionNumber;
}

impl Own for VersionNumber {
    fn version(&self) -> VersionNumber {
        *self
    }
}

impl Own for (VersionNumber, BlockData) {
    fn version(&self) -> VersionNumber {
        self.0
    }
}

/// What one vote round decided, folded from the votes as they came back.
struct Round<'c, V> {
    cfg: &'c DeviceConfig,
    origin: SiteId,
    /// The origin's own copies of the run's blocks, as its one local
    /// request read them.
    own: BlockVec<V>,
    /// Once some voter holds a block newer than the origin's copy: per
    /// block, the most current voter and its version. Empty, and never
    /// allocated, while the origin's copy of every block is current.
    newer: BlockVec<(SiteId, VersionNumber)>,
    /// The voters' total weight, the origin's included.
    weight: u64,
    /// The remote voters that answered, in ascending site order.
    voters: SiteVec<SiteId>,
}

impl<V: Own> Round<'_, V> {
    /// The most current voter for the run's `i`-th block and its version:
    /// the highest version, ties to the lowest site id (for determinism).
    #[inline(always)]
    fn current(&self, i: usize) -> (SiteId, VersionNumber) {
        let own = (self.origin, self.own[i].version());
        self.newer.get(i).copied().unwrap_or(own)
    }
}

impl<V: Own> Fold for &mut Round<'_, V> {
    #[inline(always)]
    fn reply(&mut self, t: SiteId, reply: Option<WireResponse>) {
        let Some(WireResponse::Versions(vs)) = reply else {
            return;
        };
        for (i, &v) in vs.iter().enumerate() {
            // A copy no newer than the origin's can hold no refresh: which
            // voter ties the origin's version decides nothing.
            if v <= self.own[i].version() {
                continue;
            }
            if self.newer.is_empty() {
                self.newer = (0..vs.len()).map(|i| self.current(i)).collect();
            }
            let current = &mut self.newer[i];
            if v > current.1 || (v == current.1 && t < current.0) {
                *current = (t, v);
            }
        }
        self.weight += self.cfg.weight(t).as_u64();
        self.voters.push(t);
    }
}

/// One round of vote collection for the run of distinct blocks `ks`,
/// coordinated by `origin`: a single scatter-gather exchange per site,
/// carrying every block's vote request. The origin's own votes are what
/// `own_leg`, its one local request, reads: local and free.
///
/// §5 accounting stays per block — one `VoteRequest` broadcast charged per
/// block, and each responding site's one physical reply charged as
/// `ks.len()` `VoteReply` transmissions — so the counters are those of one
/// round per block against an unchanging cluster.
#[inline(always)]
fn collect_votes<'c, T: Transport, V: Own>(
    c: &'c ServerCluster<T>,
    op: OpClass,
    origin: SiteId,
    ks: &[BlockIndex],
    own_leg: impl FnOnce() -> Option<BlockVec<V>>,
) -> DeviceResult<Round<'c, V>> {
    let cfg = c.config();
    let others = &c.coord.others[origin.index()];
    backend::charge_fanout(c, op, MsgKind::VoteRequest, others.len(), ks.len());
    event!(
        "quorum.request",
        op = op.label(),
        origin = origin.as_u32(),
        blocks = ks.len(),
        fanout = others.len(),
    );
    let own = {
        let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
        own_leg().ok_or_else(|| backend::dead_local_leg(origin))?
    };
    let mut round = Round {
        cfg,
        origin,
        own,
        newer: BlockVec::new(),
        weight: cfg.weight(origin).as_u64(),
        voters: SiteVec::new(),
    };
    let spec = ScatterSpec {
        op,
        reply_charge: Some(MsgKind::VoteReply),
        reply_units: ks.len() as u64,
    };
    let vote = ScatterRequest::VoteMany(ks);
    c.scatter(spec, origin, others, &vote, &mut round);
    if blockrep_obs::enabled() {
        for t in round.voters.iter() {
            event!("quorum.ack", site = t.as_u32(), blocks = ks.len());
        }
        obs_hooks::record(obs_hooks::quorum_size, round.voters.len() as u64 + 1);
    }
    Ok(round)
}

/// Fails unless the voters' weight reaches `quorum`.
#[inline(always)]
fn ensure_quorum<V>(round: &Round<V>, op: &'static str, quorum: u64) -> DeviceResult<()> {
    if round.weight < quorum {
        let detail = format!("gathered weight {} of {op} quorum {quorum}", round.weight);
        return Err(DeviceError::unavailable(op, detail));
    }
    Ok(())
}

/// The weighted-voting read algorithm of Figure 3, for a run of distinct
/// blocks: one vote round, then per-block quorum decisions and refreshes.
///
/// The origin votes with the copies it would serve: its one local request
/// reads each block's version and data together. Collects votes from all
/// reachable sites; if their weight reaches the read quorum, serves each
/// block whose local copy is current from that copy, and refreshes a stale
/// one from its highest-versioned voter (one extra block transfer — the
/// paper's "`U_V^n + 1`" case; it can fire for some blocks of a run and not
/// others), installing it locally and serving the bytes fetched.
///
/// # Errors
///
/// [`DeviceError::Unavailable`] when no read quorum can be gathered;
/// [`DeviceError::SiteNotServing`] when `origin` is down;
/// [`DeviceError::BlockOutOfRange`] for a bad index.
pub(crate) fn read_many<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    ks: &[BlockIndex],
) -> DeviceResult<BlockVec<BlockData>> {
    backend::ensure_origin(c, origin, SiteState::is_operational)?;
    for &k in ks {
        backend::check_block(c.config(), k)?;
    }
    if ks.is_empty() {
        return Ok(BlockVec::new());
    }
    let fetch = || c.fetch_many(origin, origin, ks);
    let mut round = collect_votes(c, OpClass::Read, origin, ks, fetch)?;
    ensure_quorum(&round, "read", c.config().read_quorum())?;
    for (i, &k) in ks.iter().enumerate() {
        let (holder, v_max) = round.current(i);
        if v_max > round.own[i].0 {
            let (v, data) = c.fetch_block(origin, holder, k).ok_or_else(|| {
                DeviceError::unavailable(
                    "read",
                    format!("current copy holder {holder} vanished mid-read"),
                )
            })?;
            c.counter().add(OpClass::Read, MsgKind::BlockTransfer, 1);
            event!(
                "read.refresh",
                block = k.as_u64(),
                holder = holder.as_u32(),
                version = v.as_u64(),
            );
            // Keep the local copy up to date, as the paper's algorithm does.
            let block: WriteBatch = [(k, v, data.clone())].into_iter().collect();
            c.apply_write_many(origin, origin, &block);
            round.own[i] = (v, data);
        }
    }
    Ok(round.own.map(|(_, data)| data))
}

/// The weighted-voting write algorithm of Figure 4, for a run of distinct
/// blocks `writes` with keys `ks`: one vote round, one install fan-out.
///
/// Collects votes; if their weight reaches the write quorum, installs each
/// block at `max(its versions) + 1` on every voter — "this repairs all
/// out-of-date copies that are operational". Each block keeps its own
/// version line, and §5 traffic is charged per block (see
/// [`collect_votes`]).
///
/// # Errors
///
/// [`DeviceError::Unavailable`] when no write quorum can be gathered, plus
/// the same validation errors as [`read_many`].
pub(crate) fn write_many<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    writes: &[(BlockIndex, BlockData)],
    ks: &[BlockIndex],
) -> DeviceResult<()> {
    backend::ensure_origin(c, origin, SiteState::is_operational)?;
    backend::check_writes(c.config(), writes)?;
    if writes.is_empty() {
        return Ok(());
    }
    let _span = span!("mcv.write", origin = origin.as_u32(), blocks = ks.len());
    let vote = || c.vote_many(origin, origin, ks);
    let round = collect_votes(c, OpClass::Write, origin, ks, vote)?;
    ensure_quorum(&round, "write", c.config().write_quorum())?;
    // Sealed once, here, for every replica that installs it.
    let batch: WriteBatch = writes
        .iter()
        .enumerate()
        .map(|(i, (k, data))| (*k, round.current(i).1.next(), data.clone()))
        .collect();
    let voters = &round.voters;
    backend::charge_fanout(
        c,
        OpClass::Write,
        MsgKind::WriteUpdate,
        voters.len(),
        ks.len(),
    );
    // Install acknowledgements are not §5 transmissions: no reply charge.
    let spec = ScatterSpec {
        op: OpClass::Write,
        reply_charge: None,
        reply_units: 1,
    };
    let update = ScatterRequest::InstallMany(&batch);
    c.scatter(spec, origin, voters, &update, |_, _: Option<_>| {});
    // Fail-stop: a coordinator that crashed during the fan-out sent nothing
    // after it crashed, and completes nothing now — least of all a copy at
    // v_new that only its own disk holds.
    backend::ensure_origin(c, origin, SiteState::is_operational)?;
    {
        let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
        c.apply_write_many(origin, origin, &batch);
    }
    event!(
        "write.commit",
        blocks = ks.len(),
        replicas = voters.len() + 1
    );
    Ok(())
}

/// Site repair under voting: free. The repaired site rejoins immediately;
/// its stale blocks are repaired lazily, on access.
pub(crate) fn repair<T: Transport>(c: &ServerCluster<T>, s: SiteId) {
    c.set_local_state(s, blockrep_types::SiteState::Available);
}

/// Whether a voting-managed block is currently available: the operational
/// sites must hold both a read and a write quorum (with the paper's default
/// majority quorums these coincide).
pub(crate) fn is_available<T: Transport>(c: &ServerCluster<T>) -> bool {
    let (cfg, w) = (c.config(), backend::operational_weight(c));
    w >= cfg.read_quorum() && w >= cfg.write_quorum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Request, WireResponse};
    use crate::{Cluster, ClusterOptions, LiveCluster, TcpCluster};
    use blockrep_net::DeliveryMode;
    use blockrep_types::{DeviceConfig, Scheme};
    use parking_lot::Mutex;

    /// A runtime's transport behind three hooks: every remote `FetchMany`
    /// is noted as `(target, run)`, every local request by its kind, and a
    /// site in `silent` takes requests but never answers them.
    struct Recorder<T> {
        inner: T,
        silent: Mutex<Vec<SiteId>>,
        fetches: Mutex<Vec<(SiteId, Vec<BlockIndex>)>>,
        locals: Mutex<Vec<String>>,
    }

    impl<T: Transport> Transport for Recorder<T> {
        const NAME: &'static str = "recorder";

        fn call(&self, to: SiteId, request: Request<'_>) -> Option<WireResponse> {
            if let Request::FetchMany(ks) = request {
                self.fetches.lock().push((to, ks.to_vec()));
            }
            let reply = self.inner.call(to, request);
            reply.filter(|_| !self.silent.lock().contains(&to))
        }

        fn cast(&self, to: SiteId, request: Request<'_>) -> bool {
            self.inner.cast(to, request)
        }

        fn local(&self, s: SiteId, request: Request<'_>) -> Option<WireResponse> {
            let kind = format!("{request:?}");
            let kind = kind.split('(').next().unwrap_or_default();
            self.locals.lock().push(kind.to_string());
            self.inner.local(s, request)
        }
    }

    impl<T> Recorder<T> {
        /// Forgets everything recorded so far.
        fn clear(&self) {
            self.fetches.lock().clear();
            self.locals.lock().clear();
        }
    }

    fn sid(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn blk(i: u64) -> BlockIndex {
        BlockIndex::new(i)
    }

    /// Four voting sites weighted 3, 2, 2, 2 (majority quorums of 5).
    fn cfg() -> DeviceConfig {
        DeviceConfig::builder(Scheme::Voting)
            .sites(4)
            .num_blocks(4)
            .block_size(4)
            .build()
            .unwrap()
    }

    fn record<T>((coord, inner): (crate::backend::Coordinator, T)) -> ServerCluster<Recorder<T>> {
        let recorder = Recorder {
            inner,
            silent: Mutex::default(),
            fetches: Mutex::default(),
            locals: Mutex::default(),
        };
        ServerCluster::over(coord, recorder)
    }

    /// The deterministic runtime, recorded.
    fn recorder() -> ServerCluster<Recorder<impl Transport>> {
        record(Cluster::new(cfg(), ClusterOptions::default()).into_parts())
    }

    /// Runs `$check`, generic over the transport, on each of the three
    /// runtimes, recorded.
    macro_rules! on_every_runtime {
        ($check:expr) => {{
            let mode = DeliveryMode::Multicast;
            $check(&recorder());
            $check(&record(LiveCluster::spawn(cfg(), mode).into_parts()));
            $check(&record(
                TcpCluster::spawn(cfg(), mode).unwrap().into_parts(),
            ));
        }};
    }

    /// Puts block `k` at version `v` straight onto site `s`'s disk, with
    /// data that names both.
    fn plant<T: Transport>(c: &ServerCluster<T>, s: u32, k: u64, v: u64) {
        let data = BlockData::from(vec![s as u8, k as u8, v as u8, 0]);
        let block: WriteBatch = [(blk(k), VersionNumber::new(v), data)]
            .into_iter()
            .collect();
        c.apply_write_many(sid(s), sid(s), &block);
    }

    fn transfers<T: Transport>(c: &ServerCluster<T>) -> u64 {
        c.traffic().get(OpClass::Read, MsgKind::BlockTransfer)
    }

    /// The remote fetches recorded, each a run of one.
    fn fetched<T>(c: &ServerCluster<Recorder<T>>) -> Vec<(SiteId, BlockIndex)> {
        let fetches = c.transport.fetches.lock();
        assert!(fetches.iter().all(|(_, ks)| ks.len() == 1), "{fetches:?}");
        fetches.iter().map(|(t, ks)| (*t, ks[0])).collect()
    }

    #[test]
    fn a_stale_block_is_refreshed_from_the_highest_version_ties_to_the_lowest_site() {
        let c = recorder();
        // Block 0: sites 1 and 2 tie at the highest version.
        for (s, v) in [(0, 2), (1, 4), (2, 4), (3, 1)] {
            plant(&c, s, 0, v);
        }
        // Block 1: site 2 alone holds the highest version.
        for (s, v) in [(0, 3), (1, 3), (2, 5), (3, 1)] {
            plant(&c, s, 1, v);
        }
        // Block 2: the origin ties the highest version with a lower site,
        // so its own copy is current and nothing is fetched.
        for (s, v) in [(0, 6), (3, 6)] {
            plant(&c, s, 2, v);
        }
        for k in 0..3 {
            c.read(sid(3), blk(k)).unwrap();
        }
        assert_eq!(fetched(&c), [(sid(1), blk(0)), (sid(2), blk(1))]);
        assert_eq!(transfers(&c), 2);
        // The origin now holds what it fetched.
        assert_eq!(c.version_of(sid(3), blk(0)), VersionNumber::new(4));
        assert_eq!(c.data_of(sid(3), blk(1)).as_slice(), &[2, 1, 5, 0]);
    }

    #[test]
    fn a_voter_that_does_not_answer_adds_no_weight_and_is_charged_no_reply() {
        let c = recorder();
        let replies =
            |c: &ServerCluster<Recorder<_>>| c.traffic().get(OpClass::Read, MsgKind::VoteReply);
        // Site 0 (weight 3) is silent: 2 + 2 + 2 still reaches 5.
        c.transport.silent.lock().push(sid(0));
        c.read(sid(1), blk(0)).unwrap();
        assert_eq!(replies(&c), 2);
        // Site 2 too: the origin and site 3 gather 4 of 5.
        c.transport.silent.lock().push(sid(2));
        let err = c.read(sid(1), blk(0)).unwrap_err();
        assert!(err.is_unavailable(), "{err}");
        assert!(
            err.to_string()
                .contains("gathered weight 4 of read quorum 5"),
            "{err}"
        );
        assert_eq!(replies(&c), 3);
        // Every vote request was still sent: one multicast per read.
        assert_eq!(c.traffic().get(OpClass::Read, MsgKind::VoteRequest), 2);
    }

    #[test]
    fn each_block_of_a_run_is_refreshed_from_its_own_holder() {
        let c = recorder();
        plant(&c, 1, 0, 3);
        plant(&c, 2, 1, 4);
        plant(&c, 0, 2, 2);
        plant(&c, 3, 2, 5);
        let ks = [blk(0), blk(1), blk(2)];
        let got = c.read_many(sid(3), &ks).unwrap();
        assert_eq!(fetched(&c), [(sid(1), blk(0)), (sid(2), blk(1))]);
        assert_eq!(transfers(&c), 2);
        let want: [&[u8]; 3] = [&[1, 0, 3, 0], &[2, 1, 4, 0], &[3, 2, 5, 0]];
        for (data, want) in got.iter().zip(want) {
            assert_eq!(data.as_slice(), want);
        }
    }

    #[test]
    fn a_read_whose_origin_is_current_asks_its_own_site_once() {
        fn check<T: Transport>(c: &ServerCluster<Recorder<T>>) {
            let ks = [blk(0), blk(1), blk(2)];
            let writes: Vec<_> = ks
                .iter()
                .map(|&k| (k, BlockData::from(vec![7; 4])))
                .collect();
            c.write_many(sid(1), &writes).unwrap();
            for run in [&ks[..1], &ks[..]] {
                c.transport.clear();
                assert_eq!(
                    c.read_many(sid(1), run).unwrap(),
                    vec![writes[0].1.clone(); run.len()]
                );
                // Its vote and its read are one local request, and
                // nothing is fetched from anyone else.
                assert_eq!(*c.transport.locals.lock(), ["FetchMany"], "{c:?}");
                assert!(c.transport.fetches.lock().is_empty(), "{c:?}");
            }
            assert_eq!(transfers(c), 0);
        }
        on_every_runtime!(check);
    }

    #[test]
    fn a_stale_block_of_a_run_is_served_as_fetched_and_the_rest_from_the_origin() {
        fn check<T: Transport>(c: &ServerCluster<Recorder<T>>) {
            // Every site holds blocks 0–2 at version 1, each copy naming
            // its site; site 2 alone holds block 1 at version 2.
            for s in 0..4 {
                (0..3).for_each(|k| plant(c, s, k, 1));
            }
            plant(c, 2, 1, 2);
            c.transport.clear();
            let got = c.read_many(sid(3), &[blk(0), blk(1), blk(2)]).unwrap();
            let got: Vec<&[u8]> = got.iter().map(BlockData::as_slice).collect();
            assert_eq!(got, [&[3, 0, 1, 0], &[2, 1, 2, 0], &[3, 2, 1, 0]], "{c:?}");
            // One run-of-one exchange with the holder, one transfer, and
            // the origin's own leg plus the refresh installed locally.
            assert_eq!(fetched(c), [(sid(2), blk(1))], "{c:?}");
            assert_eq!(transfers(c), 1, "{c:?}");
            assert_eq!(
                *c.transport.locals.lock(),
                ["FetchMany", "ApplyWriteMany"],
                "{c:?}"
            );
            assert_eq!(c.version_of(sid(3), blk(1)), VersionNumber::new(2));
            assert_eq!(c.data_of(sid(3), blk(1)).as_slice(), &[2, 1, 2, 0]);
        }
        on_every_runtime!(check);
    }
}
