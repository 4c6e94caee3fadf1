//! Test-only oracle for the report decoder.
//!
//! [`decode_report`] is the decoder as it was before it read the common
//! path record — a one- or two-byte key delta, one-byte `sent`, `lost`
//! and flows probed, no flow record — with one 8-byte load: every
//! record through the general arm, field by field. [`decode_frame`] runs
//! it behind [`Frame::decode`]'s framing checks.
//! [`the_fast_arm_decodes_as_the_general_arm_did`] holds `Frame::decode`
//! against it, the same `Ok` value or the same [`FrameError`], over
//! storm-shaped report frames — mostly flow-free records, some with flow
//! records, some with flows probed 0 (no per-flow information), deltas
//! and counters that need two varint bytes, first keys near `u32::MAX`
//! — of which one record may be spoiled: a key delta of 0, a one-byte
//! delta padded with a zero high byte, `lost > sent`, flows probed
//! above `sent`, a non-zero record count with and without its record
//! behind it, or a byte overwritten anywhere past the header. Frames may
//! lose their last bytes, with the length prefix rewritten or not, and
//! every frame's last record ends within 8 bytes of its end (the in-rack
//! total follows it), so the fast arm's fallback for a short tail runs
//! in every case. Each mutation below was applied by hand to
//! `take_plain_path` in `wire.rs` and the property failed on it:
//!
//! a. the `lost > sent` check dropped — a record losing more probes than
//!    it sent, with flows probed 0, decodes;
//! b. the zero-delta check dropped (`prev.is_some() && delta == 0`) — a
//!    repeated key decodes;
//! c. the padding check dropped (`high != 0` in the two-byte delta's
//!    guard) — a one-byte delta spelled in two bytes decodes;
//! d. the record-count byte left out of the mask (`0x0080_8080`) — a
//!    record's flow records are skipped and the next record misread.

use detector_core::types::{NodeId, PathId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::*;

pub(super) fn decode_report(buf: &mut &[u8]) -> Result<PingerReport, FrameError> {
    let pinger = NodeId(take_u32(buf)?);
    let window = take_varint(buf)?;
    let num_paths = take_count(buf, MIN_PATH_RECORD)?;
    let num_flows = take_count(buf, MIN_FLOW_RECORD)?;
    let mut paths = Vec::with_capacity(num_paths);
    let mut flows_probed = Vec::with_capacity(num_paths);
    let mut flows = Vec::with_capacity(num_flows);
    let mut prev = None;
    for _ in 0..num_paths {
        let path = PathId(take_key(buf, &mut prev)?);
        let counters = decode_counters(buf)?;
        let probed = u32::try_from(take_varint(buf)?)
            .map_err(|_| FrameError::BadPayload("flow count out of range"))?;
        let own = take_count(buf, MIN_FLOW_RECORD)?;
        if own > num_flows - flows.len() {
            return Err(FrameError::BadPayload("flow counts disagree"));
        }
        let clean = u64::from(probed)
            .checked_sub(own as u64)
            .ok_or(FrameError::BadPayload(
                "more flow records than flows probed",
            ))?;
        // Every flow of such a path lost all it sent: the counters say
        // it, and a record would only repeat them.
        let all_lost = counters.sent > 0 && counters.lost == counters.sent;
        if all_lost && own > 0 {
            return Err(FrameError::BadPayload(
                "records on a path that lost every probe",
            ));
        }
        let mut prev_flow: Option<(u16, u8)> = None;
        let (mut flow_sent, mut flow_lost) = (0u64, 0u64);
        for _ in 0..own {
            let delta = take_varint(buf)?;
            let [dscp] = take_array(buf)?;
            let sport = advance(prev_flow.map(|(sport, _)| sport), delta)?;
            if prev_flow.is_some_and(|prev| (sport, dscp) <= prev) {
                return Err(FrameError::BadPayload("keys not strictly ascending"));
            }
            prev_flow = Some((sport, dscp));
            let PathCounters { sent, lost } = decode_counters(buf)?;
            if lost == 0 {
                return Err(FrameError::BadPayload("flow record without a loss"));
            }
            // A sum past u64 is past any path's counters; `lost` cannot
            // overflow before `sent` does.
            flow_sent = flow_sent.checked_add(sent).ok_or(FLOW_PROBES_DISAGREE)?;
            flow_lost += lost;
            flows.push(FlowRecord {
                path,
                sport,
                dscp,
                sent,
                lost,
            });
        }
        // What lets the diagnoser rebuild the flows without a record by
        // subtraction: the records' probes leave at least one for each
        // flow without a record — none over when every flow has a
        // record — and the records' losses are the path's, or the path
        // lost every probe and has no record. Zero flows probed is a path
        // reported without per-flow information: nothing to check.
        if probed > 0 {
            let fits = match flow_sent.checked_add(clean) {
                Some(least) if clean == 0 => least == counters.sent,
                Some(least) => least <= counters.sent,
                None => false,
            };
            if !fits {
                return Err(FLOW_PROBES_DISAGREE);
            }
            if !all_lost && flow_lost != counters.lost {
                return Err(FrameError::BadPayload(
                    "flow losses disagree with the path's",
                ));
            }
        }
        paths.push((path, counters));
        flows_probed.push(probed);
    }
    if flows.len() != num_flows {
        return Err(FrameError::BadPayload("flow counts disagree"));
    }
    Ok(PingerReport {
        pinger,
        window,
        paths,
        flows_probed,
        in_rack: decode_counters(buf)?,
        flows,
    })
}

/// [`Frame::decode`] of a report frame, through [`decode_report`].
pub(super) fn decode_frame(bytes: &[u8]) -> Result<Frame, FrameError> {
    let mut buf = bytes;
    let len = take_u32(&mut buf)?;
    let [tag] = take_array(&mut buf)?;
    assert_eq!(tag, TAG_REPORT, "the oracle decodes reports only");
    if len > MAX_FRAME {
        return Err(FrameError::Oversize(len));
    }
    let total = 4 + len as usize;
    if bytes.len() < total {
        return Err(FrameError::Truncated);
    }
    if bytes.len() > total {
        return Err(FrameError::TrailingBytes);
    }
    let report = decode_report(&mut buf)?;
    if !buf.is_empty() {
        return Err(FrameError::TrailingBytes);
    }
    Ok(Frame::Report(report))
}

/// How [`storm_frame`] spoils its chosen record.
#[derive(Clone, Copy, Debug)]
enum Spoil {
    DeltaZero,
    PaddedDelta,
    LostAboveSent,
    ProbedAboveSent,
    CountWithRecord,
    CountAlone,
    Byte(u8),
}

/// A report frame shaped like a storm pinger's: `records` paths at
/// small ascending distances, mostly flow-free, drawn from `seed`, with
/// the record at `spoil_at` (modulo `records`) spoiled by `spoil`.
fn storm_frame(records: usize, seed: u64, spoil: Option<Spoil>, spoil_at: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spoil_at = spoil_at % records;
    let mut body = Vec::new();
    let mut flows = 0u64;
    for i in 0..records {
        let spoil = spoil.filter(|_| i == spoil_at);
        let delta: u64 = match (i, rng.gen_range(0..8u8)) {
            (0, 0) => u64::from(u32::MAX) - rng.gen_range(0..64u64),
            (_, 0) => rng.gen_range(128..400),
            (0, 1) => 0,
            _ => rng.gen_range(1..128),
        };
        let sent: u64 = match rng.gen_range(0..8u8) {
            0 => rng.gen_range(128..300),
            1 => 0,
            _ => rng.gen_range(1..40),
        };
        let mut probed = match rng.gen_range(0..4u8) {
            0 => 0,
            _ => rng.gen_range(0..sent.min(6) + 1),
        };
        let mut lost = match rng.gen_range(0..4u8) {
            0 | 1 => 0,
            2 => sent,
            _ => rng.gen_range(0..sent + 1),
        };
        // A partial loss with flows probed ships one flow record taking
        // what the flows without one leave.
        let mut own = Vec::new();
        if probed > 0 && lost > 0 && lost < sent {
            let flow_sent = sent - (probed - 1);
            lost = lost.min(flow_sent);
            own.push((33_000, 0u8, flow_sent, lost));
        }
        match spoil {
            Some(Spoil::DeltaZero) => put_varint(&mut body, 0),
            Some(Spoil::PaddedDelta) => {
                let mut spelled = Vec::new();
                put_varint(&mut spelled, delta);
                if let Some(last) = spelled.last_mut() {
                    *last |= 0x80;
                }
                spelled.push(0);
                body.extend_from_slice(&spelled);
            }
            _ => put_varint(&mut body, delta),
        }
        match spoil {
            Some(Spoil::LostAboveSent) => lost = sent + 1,
            Some(Spoil::ProbedAboveSent) => probed = sent + 1,
            Some(Spoil::CountWithRecord) if own.is_empty() => own.push((7, 46, sent, lost)),
            _ => {}
        }
        put_varint(&mut body, sent);
        put_varint(&mut body, lost);
        put_varint(&mut body, probed);
        if let Some(Spoil::CountAlone) = spoil {
            put_varint(&mut body, own.len() as u64 + 1);
        } else {
            put_varint(&mut body, own.len() as u64);
        }
        for &(sport, dscp, sent, lost) in &own {
            put_varint(&mut body, sport);
            body.push(dscp);
            put_varint(&mut body, sent);
            put_varint(&mut body, lost);
        }
        flows += own.len() as u64;
    }
    put_varint(&mut body, rng.gen_range(0..300));
    put_varint(&mut body, 0);
    if let Some(Spoil::Byte(value)) = spoil {
        let at = rng.gen_range(0..body.len());
        if let Some(b) = body.get_mut(at) {
            *b = value;
        }
    }
    let mut payload = vec![TAG_REPORT];
    put_u32(&mut payload, 900);
    put_varint(&mut payload, 3);
    put_varint(&mut payload, records as u64);
    put_varint(&mut payload, flows);
    payload.extend_from_slice(&body);
    let mut frame = Vec::new();
    put_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(&payload);
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `Frame::decode` ≡ the decoder without the fast arm, `Ok` value or
    /// error, over storm-shaped report frames with one spoiled record and
    /// cut tails (see the module doc for the mutations this kills).
    #[test]
    fn the_fast_arm_decodes_as_the_general_arm_did(
        (records, seed) in (1usize..40, 0u64..u64::MAX),
        (spoil, spoil_at, value) in (0u8..10, 0usize..64, 0u8..255),
        (cut, cut_len) in (0u8..4, 0usize..12),
    ) {
        let spoil = match spoil {
            0 => Some(Spoil::DeltaZero),
            1 => Some(Spoil::PaddedDelta),
            2 => Some(Spoil::LostAboveSent),
            3 => Some(Spoil::ProbedAboveSent),
            4 => Some(Spoil::CountWithRecord),
            5 => Some(Spoil::CountAlone),
            6 => Some(Spoil::Byte(value)),
            _ => None,
        };
        let mut frame = storm_frame(records, seed, spoil, spoil_at);
        match cut {
            // Cut within the payload, its length prefix rewritten.
            0 => {
                frame.truncate(frame.len().saturating_sub(cut_len).max(5));
                let len = (frame.len() - 4) as u32;
                frame[..4].copy_from_slice(&len.to_be_bytes());
            }
            // Cut, the prefix still announcing the whole frame.
            1 => frame.truncate(frame.len().saturating_sub(cut_len).max(5)),
            _ => {}
        }
        prop_assert_eq!(Frame::decode(&frame), decode_frame(&frame));
    }
}

#[test]
fn the_oracle_frames_decode_and_spoil_as_intended() {
    // Unspoiled frames decode, and the fast arm takes their leading
    // flow-free records.
    let (mut decoded, mut taken) = (0, 0);
    for seed in 0..64 {
        let whole = storm_frame(30, seed, None, 0);
        match Frame::decode(&whole) {
            Ok(Frame::Report(report)) => {
                assert_eq!(report.paths.len(), 30);
                decoded += 1;
            }
            // A first key near `u32::MAX` runs the later ones out of range.
            other => assert_eq!(other, Err(FrameError::BadPayload("key out of range"))),
        }
        // Past the length prefix, tag, pinger and three one-byte varints.
        let (mut buf, mut prev) = (&whole[12..], None);
        while let Some((path, ..)) = take_plain_path(&mut buf, prev) {
            prev = Some(path.0);
            taken += 1;
        }
    }
    assert!(decoded >= 48, "{decoded} of 64 unspoiled frames decode");
    assert!(taken >= 64, "the fast arm took {taken} leading records");
    // Each spoil makes the frame an error, the same one.
    for spoil in [
        Spoil::PaddedDelta,
        Spoil::LostAboveSent,
        Spoil::ProbedAboveSent,
        Spoil::CountAlone,
    ] {
        let frame = storm_frame(30, 7, Some(spoil), 5);
        assert!(Frame::decode(&frame).is_err(), "{spoil:?}");
        assert_eq!(Frame::decode(&frame), decode_frame(&frame), "{spoil:?}");
    }
}
