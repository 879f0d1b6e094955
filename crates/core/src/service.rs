//! The site service: what one site's server process does with a request.
//!
//! The paper's reliable device is a set of cooperating server processes
//! speaking one small protocol (Figures 3–8). [`serve`] is that protocol's
//! site side, written once: the only place where a protocol message is
//! dispatched onto a [`Replica`]. Every runtime is a
//! [`Transport`](crate::transport::Transport) that carries [`WireRequest`]
//! values to a thread running this function — encoded over a socket, as
//! they are over an inbox, or not carried at all when the deterministic
//! cluster or a coordinator asks a site on its own thread — so a request is
//! handled the same way whatever path it arrived by.
//!
//! Reply shapes: a read answers with what it read (`Versions`, `Block`,
//! `DataMany`, `Vector`, `Payload`, `W`); `Scrub` and
//! `ApplyRepair` with the `Count` of blocks reset or replaced; every other
//! write with `Ack`. A traced envelope is answered as its inner request.

use crate::replica::Replica;
use crate::wire::{Request, WireRequest, WireResponse};
use blockrep_types::{BlockData, BlockIndex};

/// Whether `request` fits `replica`'s device: every block it names exists,
/// every payload is one block long, a version vector covers every block,
/// and a was-available set names only the device's sites. The wire layer
/// decodes a frame without knowing the geometry, so this is where a
/// well-formed frame naming a block or a site the device does not have is
/// turned away, before the store's indexing — or a later recovery's — would
/// panic.
#[inline(always)]
fn fits(replica: &Replica, request: Request<'_>) -> bool {
    let (num_blocks, block_size) = replica.geometry();
    let block = |k: &BlockIndex| k.as_u64() < num_blocks;
    let install = |k: &BlockIndex, data: &BlockData| block(k) && data.len() == block_size;
    match request {
        Request::Fetch(k) | Request::FetchLease(k) => block(&k),
        Request::ApplyWrite(k, _, data) | Request::ApplyWriteFaulty(k, _, data, _) => {
            install(&k, data)
        }
        Request::ApplyWriteMany(blocks) => blocks.iter().all(|(k, block)| install(k, block.data())),
        Request::ApplyRepair(blocks) => blocks.iter().all(|(k, _, data)| install(k, data)),
        Request::ReadLocalMany(ks) | Request::VoteMany(ks) => ks.iter().all(block),
        Request::RepairPayload(vv) => vv.len() as u64 == num_blocks,
        Request::SetW(w) => w.iter().all(|&s| replica.knows(s)),
        Request::AddW(s) => replica.knows(s),
        Request::Probe | Request::VersionVector | Request::Scrub | Request::GetW => true,
    }
}

/// Serves one request on `site`'s replica and returns the reply. `None`
/// is a request that does not [fit](fits) this site's device: the
/// exchange fails, the site stays up.
///
/// Always inlined, on a request that is `Copy`: on the deterministic
/// cluster the request is built right above the call, so the dispatch
/// folds down to the one arm it takes.
#[inline(always)]
pub(crate) fn serve(replica: &mut Replica, request: Request<'_>) -> Option<WireResponse> {
    if !fits(replica, request) {
        return None;
    }
    Some(match request {
        Request::Probe => WireResponse::Ack,
        Request::Fetch(k) | Request::FetchLease(k) => {
            let (v, data) = replica.versioned(k);
            WireResponse::Block(v, data)
        }
        Request::ApplyWrite(k, v, data) => {
            replica.install(k, data.clone(), v);
            WireResponse::Ack
        }
        Request::ApplyWriteFaulty(k, v, data, fault) => {
            replica.install_faulty(k, data.clone(), v, fault);
            WireResponse::Ack
        }
        Request::ApplyWriteMany(blocks) => {
            for (k, block) in blocks {
                replica.install_sealed(*k, block.clone());
            }
            WireResponse::Ack
        }
        Request::ReadLocalMany(ks) => {
            WireResponse::DataMany(ks.iter().map(|&k| replica.data(k)).collect())
        }
        Request::VoteMany(ks) => {
            WireResponse::Versions(ks.iter().map(|&k| replica.version(k)).collect())
        }
        Request::VersionVector => WireResponse::Vector(replica.version_vector()),
        Request::RepairPayload(vv) => {
            let (vv, blocks) = replica.repair_payload(vv);
            WireResponse::Payload(vv, blocks)
        }
        Request::ApplyRepair(blocks) => WireResponse::Count(replica.apply_repair(blocks) as u64),
        Request::Scrub => WireResponse::Count(replica.scrub().len() as u64),
        Request::GetW => WireResponse::W(replica.was_available().clone()),
        Request::SetW(w) => {
            // A write group is usually the one already recorded: keep that
            // set rather than build an equal one.
            if !replica.was_available().iter().eq(w) {
                replica.set_was_available(w.iter().copied().collect());
            }
            WireResponse::Ack
        }
        Request::AddW(s) => {
            replica.add_was_available(s);
            WireResponse::Ack
        }
    })
}

/// Serves a request a site took whole, off its socket or out of its inbox,
/// through [`serve`]: a run of votes is answered in the run's own buffer,
/// as the versions fit where the block indices were (a `Vec` collected in
/// place).
///
/// A [`WireRequest::Traced`] envelope is opened here, for every transport
/// that carries one: the request inside is served within a
/// `phase.remote_apply` span parented under the sender's, which is how a
/// site's work lands in the coordinator's causal tree.
pub(crate) fn serve_owned(
    replica: &mut Replica,
    site: u32,
    request: WireRequest,
) -> Option<WireResponse> {
    match request {
        WireRequest::VoteMany(ks) if fits(replica, Request::VoteMany(&ks)) => {
            let vs: Vec<_> = ks.into_iter().map(|k| replica.version(k)).collect();
            Some(WireResponse::Versions(vs.into()))
        }
        WireRequest::Traced {
            trace_id,
            parent_span,
            inner,
        } => serve_traced(replica, site, trace_id, parent_span, *inner),
        request => serve(replica, request.as_request()),
    }
}

/// Serves the request a trace envelope carries, inside its
/// `phase.remote_apply` span.
#[cold]
fn serve_traced(
    replica: &mut Replica,
    site: u32,
    trace_id: u64,
    parent_span: u64,
    inner: WireRequest,
) -> Option<WireResponse> {
    let _remote = blockrep_obs::trace::start_remote(
        trace_id,
        parent_span,
        crate::obs_hooks::phase_remote_apply(),
        site,
    );
    serve_owned(replica, site, inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_storage::{SealedBlock, StorageFault};
    use blockrep_types::{
        BlockData, BlockIndex, DeviceConfig, Scheme, SiteId, VersionNumber, VersionVector,
    };

    const BLOCKS: u64 = 4;

    fn replica() -> Replica {
        let cfg = DeviceConfig::builder(Scheme::AvailableCopy)
            .sites(3)
            .num_blocks(BLOCKS)
            .block_size(8)
            .build()
            .unwrap();
        Replica::new(SiteId::new(1), &cfg)
    }

    fn blk(i: u64) -> BlockIndex {
        BlockIndex::new(i)
    }

    fn ver(v: u64) -> VersionNumber {
        VersionNumber::new(v)
    }

    fn fill(b: u8) -> BlockData {
        BlockData::from(vec![b; 8])
    }

    /// The shape a reply must have, as a predicate over it.
    type Shape = fn(&WireResponse) -> bool;

    fn ack(r: &WireResponse) -> bool {
        *r == WireResponse::Ack
    }

    fn count(r: &WireResponse) -> bool {
        matches!(r, WireResponse::Count(_))
    }

    /// Every request a site serves, with the shape of its reply.
    fn table() -> Vec<(WireRequest, Shape)> {
        let ks = vec![blk(0), blk(2), blk(3)];
        let batch = vec![(blk(0), ver(1), fill(1)), (blk(3), ver(1), fill(2))];
        let w = vec![SiteId::new(0), SiteId::new(1)];
        vec![
            (WireRequest::Probe, ack),
            (WireRequest::Fetch(blk(1)), |r| {
                matches!(r, WireResponse::Block(..))
            }),
            (WireRequest::FetchLease(blk(1)), |r| {
                matches!(r, WireResponse::Block(..))
            }),
            (
                WireRequest::VoteMany(ks.clone()),
                |r| matches!(r, WireResponse::Versions(vs) if vs.len() == 3),
            ),
            (
                WireRequest::ReadLocalMany(ks),
                |r| matches!(r, WireResponse::DataMany(ds) if ds.len() == 3),
            ),
            (
                WireRequest::VersionVector,
                |r| matches!(r, WireResponse::Vector(vv) if vv.len() == BLOCKS as usize),
            ),
            (
                WireRequest::RepairPayload(VersionVector::new(BLOCKS)),
                |r| matches!(r, WireResponse::Payload(..)),
            ),
            (WireRequest::GetW, |r| matches!(r, WireResponse::W(_))),
            (WireRequest::Scrub, count),
            (WireRequest::ApplyWrite(blk(1), ver(1), fill(3)), ack),
            (
                WireRequest::ApplyWriteFaulty(blk(2), ver(1), fill(4), StorageFault::StaleVersion),
                ack,
            ),
            (
                WireRequest::ApplyWriteMany(batch.iter().cloned().collect()),
                ack,
            ),
            (WireRequest::ApplyRepair(batch), count),
            (WireRequest::SetW(w), ack),
            (WireRequest::AddW(SiteId::new(2)), ack),
        ]
    }

    #[test]
    fn every_site_request_gets_a_reply_of_its_shape_traced_or_bare() {
        for (request, shape) in table() {
            let bare = serve_owned(&mut replica(), 1, request.clone())
                .unwrap_or_else(|| panic!("{request:?} is a site request"));
            assert!(shape(&bare), "{request:?} answered {bare:?}");
            let traced = WireRequest::Traced {
                trace_id: 7,
                parent_span: 9,
                inner: Box::new(request.clone()),
            };
            assert_eq!(
                serve_owned(&mut replica(), 1, traced),
                Some(bare),
                "the envelope changes nothing about the reply to {request:?}"
            );
        }
    }

    #[test]
    fn a_request_that_does_not_fit_the_disk_is_turned_away_not_a_panic() {
        let out = blk(BLOCKS);
        let short = BlockData::from(vec![1; 7]);
        let fault = StorageFault::Torn { keep: 3 };
        for request in [
            WireRequest::Fetch(out),
            WireRequest::FetchLease(out),
            WireRequest::ReadLocalMany(vec![blk(0), out]),
            WireRequest::VoteMany(vec![out]),
            WireRequest::ApplyWrite(out, ver(1), fill(1)),
            WireRequest::ApplyWrite(blk(0), ver(1), short.clone()),
            WireRequest::ApplyWriteFaulty(blk(0), ver(1), short.clone(), fault),
            WireRequest::ApplyWriteMany(
                [(blk(0), ver(1), fill(1)), (out, ver(1), fill(1))]
                    .into_iter()
                    .collect(),
            ),
            WireRequest::ApplyRepair(vec![(blk(1), ver(1), short)]),
            WireRequest::RepairPayload(VersionVector::new(BLOCKS + 1)),
            // A was-available set naming a site the device does not have
            // would send the next recovery looking for it.
            WireRequest::SetW(vec![SiteId::new(0), SiteId::new(3)]),
            WireRequest::AddW(SiteId::new(99)),
        ] {
            let traced = WireRequest::Traced {
                trace_id: 7,
                parent_span: 9,
                inner: Box::new(request.clone()),
            };
            let mut r = replica();
            assert_eq!(serve_owned(&mut r, 1, traced), None, "{request:?}");
            assert_eq!(serve_owned(&mut r, 1, request.clone()), None, "{request:?}");
            // Nothing of a batch lands, not even its blocks that fit.
            assert_eq!(
                r.version_vector(),
                VersionVector::new(BLOCKS),
                "{request:?}"
            );
            assert_eq!(r.was_available().len(), 3, "{request:?}");
        }
    }

    #[test]
    fn an_install_is_what_the_reads_then_return() {
        let mut r = replica();
        serve_owned(&mut r, 1, WireRequest::ApplyWrite(blk(2), ver(5), fill(9)));
        let block = Some(WireResponse::Block(ver(5), fill(9)));
        assert_eq!(serve_owned(&mut r, 1, WireRequest::Fetch(blk(2))), block);
        assert_eq!(
            serve_owned(&mut r, 1, WireRequest::FetchLease(blk(2))),
            block
        );
        assert_eq!(
            serve_owned(&mut r, 1, WireRequest::ReadLocalMany(vec![blk(2)])),
            Some(WireResponse::DataMany(vec![fill(9)].into()))
        );
        assert_eq!(
            serve_owned(&mut r, 1, WireRequest::VoteMany(vec![blk(2)])),
            Some(WireResponse::Versions(vec![ver(5)].into()))
        );
        // A batch lands whole, and an older version does not overwrite.
        let batch = [(blk(0), ver(1), fill(1)), (blk(2), ver(4), fill(0))];
        serve_owned(
            &mut r,
            1,
            WireRequest::ApplyWriteMany(batch.into_iter().collect()),
        );
        let ks = [blk(0), blk(2)];
        assert_eq!(
            serve_owned(&mut r, 1, WireRequest::ReadLocalMany(ks.to_vec())),
            Some(WireResponse::DataMany(vec![fill(1), fill(9)].into()))
        );
        assert_eq!(
            serve_owned(&mut r, 1, WireRequest::VoteMany(ks.to_vec())),
            Some(WireResponse::Versions(vec![ver(1), ver(5)].into()))
        );
        // A block sealed in process lands with the seal's sum.
        let sealed = [(blk(3), SealedBlock::new(ver(6), fill(5)))];
        let install = Request::ApplyWriteMany(&sealed);
        assert_eq!(serve(&mut r, install), Some(WireResponse::Ack));
        assert_eq!(
            serve_owned(&mut r, 1, WireRequest::Fetch(blk(3))),
            Some(WireResponse::Block(ver(6), fill(5)))
        );
        assert!(r.scrub().is_empty());
        // A repair answers with the number of blocks it replaced.
        let repair = vec![(blk(1), ver(2), fill(4)), (blk(2), ver(5), fill(9))];
        assert_eq!(
            serve_owned(&mut r, 1, WireRequest::ApplyRepair(repair)),
            Some(WireResponse::Count(2))
        );
    }
}
