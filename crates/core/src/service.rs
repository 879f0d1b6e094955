//! The site service: what one site's server process does with a request.
//!
//! The paper's reliable device is a set of cooperating server processes
//! speaking one small protocol (Figures 3–8). [`serve`] is that protocol's
//! site side, written once: the only place outside the reference
//! [`Cluster`](crate::Cluster) where a protocol message is dispatched onto
//! a [`Replica`]. Every message-passing runtime is a
//! [`Transport`](crate::transport::Transport) that carries
//! [`WireRequest`] values to a thread running this function — encoded over
//! a socket, as they are over an inbox, or not carried at all when a
//! coordinator asks its own site — so a request is handled the same way
//! whatever path it arrived by.

use crate::replica::Replica;
use crate::wire::{WireRequest, WireResponse};
use blockrep_types::{BlockData, BlockIndex, VersionNumber};

/// Whether `request` fits `replica`'s disk: every block it names exists,
/// every payload is one block long, and a version vector covers every
/// block. The wire layer decodes a frame without knowing the geometry, so
/// this is where a well-formed frame that names a block the site does not
/// have is turned away, before the store's indexing would panic.
fn fits(replica: &Replica, request: &WireRequest) -> bool {
    let (num_blocks, block_size) = replica.geometry();
    let block = |k: &BlockIndex| k.as_u64() < num_blocks;
    let install = |k: &BlockIndex, data: &BlockData| block(k) && data.len() == block_size;
    let batch = |blocks: &[(BlockIndex, VersionNumber, BlockData)]| {
        blocks.iter().all(|(k, _, data)| install(k, data))
    };
    match request {
        WireRequest::Vote(k)
        | WireRequest::Fetch(k)
        | WireRequest::FetchLease(k)
        | WireRequest::ReadLocal(k) => block(k),
        WireRequest::ApplyWrite(k, _, data) | WireRequest::ApplyWriteFaulty(k, _, data, _) => {
            install(k, data)
        }
        WireRequest::ApplyWriteMany(blocks) => {
            blocks.iter().all(|(k, block)| install(k, block.data()))
        }
        WireRequest::ApplyRepair(blocks) => batch(blocks),
        WireRequest::ReadLocalMany(ks) | WireRequest::VoteMany(ks) => ks.iter().all(block),
        WireRequest::RepairPayload(vv) => vv.len() as u64 == num_blocks,
        // An envelope's request is checked when `serve` opens it.
        WireRequest::Probe
        | WireRequest::VersionVector
        | WireRequest::Scrub
        | WireRequest::GetW
        | WireRequest::SetW(_)
        | WireRequest::AddW(_)
        | WireRequest::Traced { .. }
        | WireRequest::Mux { .. }
        | WireRequest::Shutdown => true,
    }
}

/// Serves one request on `site`'s replica and returns the reply.
///
/// A [`WireRequest::Traced`] envelope is opened here, for every transport:
/// the carried request is served inside a `phase.remote_apply` span
/// parented under the sender's, which is how a site's work lands in the
/// coordinator's causal tree. `None` is "not a site request" —
/// [`WireRequest::Mux`] and [`WireRequest::Shutdown`] are about the
/// connection the request came in on, and stay the transport's business —
/// or a request that does not [fit](fits) this site's disk, which the
/// transport treats the same way: the exchange fails, the site stays up.
pub(crate) fn serve(
    replica: &mut Replica,
    site: u32,
    request: WireRequest,
) -> Option<WireResponse> {
    if !fits(replica, &request) {
        return None;
    }
    Some(match request {
        WireRequest::Probe => WireResponse::Ack,
        WireRequest::Vote(k) => WireResponse::Version(replica.version(k)),
        WireRequest::Fetch(k) | WireRequest::FetchLease(k) => {
            let (v, data) = replica.versioned(k);
            WireResponse::Block(v, data)
        }
        WireRequest::ApplyWrite(k, v, data) => {
            replica.install(k, data, v);
            WireResponse::Ack
        }
        WireRequest::ApplyWriteFaulty(k, v, data, fault) => {
            replica.install_faulty(k, data, v, fault);
            WireResponse::Ack
        }
        WireRequest::ApplyWriteMany(blocks) => {
            for (k, block) in blocks {
                replica.install_sealed(k, block);
            }
            WireResponse::Ack
        }
        WireRequest::ReadLocal(k) => WireResponse::Data(replica.data(k)),
        WireRequest::ReadLocalMany(ks) => {
            WireResponse::DataMany(ks.into_iter().map(|k| replica.data(k)).collect())
        }
        WireRequest::VoteMany(ks) => {
            WireResponse::Versions(ks.into_iter().map(|k| replica.version(k)).collect())
        }
        WireRequest::VersionVector => WireResponse::Vector(replica.version_vector()),
        WireRequest::RepairPayload(vv) => {
            let (vv, blocks) = replica.repair_payload(&vv);
            WireResponse::Payload(vv, blocks)
        }
        WireRequest::ApplyRepair(blocks) => {
            replica.apply_repair(blocks);
            WireResponse::Ack
        }
        WireRequest::Scrub => WireResponse::Count(replica.scrub().len() as u64),
        WireRequest::GetW => WireResponse::W(replica.was_available().clone()),
        WireRequest::SetW(w) => {
            replica.set_was_available(w);
            WireResponse::Ack
        }
        WireRequest::AddW(s) => {
            replica.add_was_available(s);
            WireResponse::Ack
        }
        WireRequest::Traced {
            trace_id,
            parent_span,
            inner,
        } => {
            let _remote = blockrep_obs::trace::start_remote(
                trace_id,
                parent_span,
                crate::obs_hooks::phase_remote_apply(),
                site,
            );
            return serve(replica, site, *inner);
        }
        WireRequest::Mux { .. } | WireRequest::Shutdown => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_storage::StorageFault;
    use blockrep_types::{
        BlockData, BlockIndex, DeviceConfig, Scheme, SiteId, VersionNumber, VersionVector,
    };
    use std::collections::BTreeSet;

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

    /// Every request a site serves, with the shape of its reply.
    fn table() -> Vec<(WireRequest, Shape)> {
        let ks = vec![blk(0), blk(2), blk(3)];
        let batch = vec![(blk(0), ver(1), fill(1)), (blk(3), ver(1), fill(2))];
        let w: BTreeSet<SiteId> = [SiteId::new(0), SiteId::new(1)].into();
        vec![
            (WireRequest::Probe, ack),
            (WireRequest::Vote(blk(1)), |r| {
                matches!(r, WireResponse::Version(_))
            }),
            (WireRequest::Fetch(blk(1)), |r| {
                matches!(r, WireResponse::Block(..))
            }),
            (WireRequest::FetchLease(blk(1)), |r| {
                matches!(r, WireResponse::Block(..))
            }),
            (WireRequest::ReadLocal(blk(1)), |r| {
                matches!(r, WireResponse::Data(_))
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
            (WireRequest::Scrub, |r| matches!(r, WireResponse::Count(_))),
            (WireRequest::ApplyWrite(blk(1), ver(1), fill(3)), ack),
            (
                WireRequest::ApplyWriteFaulty(blk(2), ver(1), fill(4), StorageFault::StaleVersion),
                ack,
            ),
            (
                WireRequest::ApplyWriteMany(batch.iter().cloned().collect()),
                ack,
            ),
            (WireRequest::ApplyRepair(batch), ack),
            (WireRequest::SetW(w), ack),
            (WireRequest::AddW(SiteId::new(2)), ack),
        ]
    }

    #[test]
    fn every_site_request_gets_a_reply_of_its_shape_traced_or_bare() {
        for (request, shape) in table() {
            let bare = serve(&mut replica(), 1, request.clone())
                .unwrap_or_else(|| panic!("{request:?} is a site request"));
            assert!(shape(&bare), "{request:?} answered {bare:?}");
            let traced = WireRequest::Traced {
                trace_id: 7,
                parent_span: 9,
                inner: Box::new(request.clone()),
            };
            assert_eq!(
                serve(&mut replica(), 1, traced),
                Some(bare),
                "the envelope changes nothing about the reply to {request:?}"
            );
        }
    }

    #[test]
    fn connection_business_is_not_served() {
        let mux = WireRequest::Mux {
            id: 3,
            inner: Box::new(WireRequest::Probe),
        };
        for request in [WireRequest::Shutdown, mux] {
            let traced = WireRequest::Traced {
                trace_id: 7,
                parent_span: 9,
                inner: Box::new(request.clone()),
            };
            assert_eq!(serve(&mut replica(), 1, request), None);
            assert_eq!(serve(&mut replica(), 1, traced), None);
        }
    }

    #[test]
    fn a_request_that_does_not_fit_the_disk_is_turned_away_not_a_panic() {
        let out = blk(BLOCKS);
        let short = BlockData::from(vec![1; 7]);
        let fault = StorageFault::Torn { keep: 3 };
        for request in [
            WireRequest::Vote(out),
            WireRequest::Fetch(out),
            WireRequest::FetchLease(out),
            WireRequest::ReadLocal(out),
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
        ] {
            let traced = WireRequest::Traced {
                trace_id: 7,
                parent_span: 9,
                inner: Box::new(request.clone()),
            };
            let mut r = replica();
            assert_eq!(serve(&mut r, 1, traced), None, "{request:?}");
            assert_eq!(serve(&mut r, 1, request.clone()), None, "{request:?}");
            // Nothing of a batch lands, not even its blocks that fit.
            assert_eq!(
                r.version_vector(),
                VersionVector::new(BLOCKS),
                "{request:?}"
            );
        }
    }

    #[test]
    fn an_install_is_what_the_reads_then_return() {
        let mut r = replica();
        serve(&mut r, 1, WireRequest::ApplyWrite(blk(2), ver(5), fill(9)));
        let block = Some(WireResponse::Block(ver(5), fill(9)));
        assert_eq!(serve(&mut r, 1, WireRequest::Fetch(blk(2))), block);
        assert_eq!(serve(&mut r, 1, WireRequest::FetchLease(blk(2))), block);
        assert_eq!(
            serve(&mut r, 1, WireRequest::ReadLocal(blk(2))),
            Some(WireResponse::Data(fill(9)))
        );
        assert_eq!(
            serve(&mut r, 1, WireRequest::Vote(blk(2))),
            Some(WireResponse::Version(ver(5)))
        );
        // A batch lands whole, and an older version does not overwrite.
        let batch = [(blk(0), ver(1), fill(1)), (blk(2), ver(4), fill(0))];
        serve(
            &mut r,
            1,
            WireRequest::ApplyWriteMany(batch.into_iter().collect()),
        );
        assert_eq!(
            serve(&mut r, 1, WireRequest::ReadLocalMany(vec![blk(0), blk(2)])),
            Some(WireResponse::DataMany(vec![fill(1), fill(9)]))
        );
        assert_eq!(
            serve(&mut r, 1, WireRequest::VoteMany(vec![blk(0), blk(2)])),
            Some(WireResponse::Versions(vec![ver(1), ver(5)]))
        );
    }
}
