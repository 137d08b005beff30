//! Binary wire codec for every protocol message.
//!
//! Builds on `openwf-wire`'s framing (length prefix, version byte,
//! per-frame name table — see that crate's docs for the format): a
//! [`Msg`] is one `TAG_MSG` frame whose payload starts with a variant
//! tag byte. Fragment payloads inside a `FragmentReply` share the
//! frame's single name table, so a reply carrying fifty fragments over
//! the same community vocabulary spells each label once.
//!
//! Decoding charges the whole frame's name table against a
//! [`VocabularyBudget`] **before interning anything** — the trust
//! boundary the ROADMAP's admission-time guard was always meant to
//! reach. An over-budget reply is rejected as a protocol error with the
//! process interner untouched.
//!
//! Times travel as varint microseconds ([`SimTime::as_micros`]);
//! locations are inline strings (they are free-form hints, not semantic
//! names, and must not charge the vocabulary budget).

use std::sync::Arc;

use openwf_core::{Fragment, Interned, Label, TaskId};
use openwf_simnet::{HostId, SimDuration, SimTime};
use openwf_wire::model::{read_fragment_resolved, read_spec_resolved, write_fragment};
use openwf_wire::{
    read_frame, DecodeScratch, FrameEncoder, PayloadReader, VocabularyBudget, WireError, TAG_MSG,
};

use crate::auction_part::Bid;
use crate::messages::{Msg, ProblemId};
use crate::metadata::{Assignment, ExecutionPlan, PlannedOutput, PlannedTask, TaskMetadata};

const V_INITIATE: u8 = 0;
const V_FRAGMENT_QUERY: u8 = 1;
const V_FRAGMENT_REPLY: u8 = 2;
const V_CAPABILITY_QUERY: u8 = 3;
const V_CAPABILITY_REPLY: u8 = 4;
const V_CALL_FOR_BIDS: u8 = 5;
const V_BID: u8 = 6;
const V_DECLINE: u8 = 7;
const V_AWARD: u8 = 8;
const V_EXECUTE: u8 = 9;
const V_INPUT_DELIVERY: u8 = 10;
const V_TASK_COMPLETED: u8 = 11;
const V_GOAL_DELIVERED: u8 = 12;

fn write_problem(enc: &mut FrameEncoder, p: ProblemId) {
    enc.varint(u64::from(p.initiator.0));
    enc.varint(u64::from(p.seq));
    enc.varint(u64::from(p.attempt));
}

fn read_u32(r: &mut PayloadReader<'_, '_>) -> Result<u32, WireError> {
    u32::try_from(r.varint()?).map_err(|_| WireError::Malformed("u32 field out of range"))
}

fn read_problem(r: &mut PayloadReader<'_, '_>) -> Result<ProblemId, WireError> {
    Ok(ProblemId {
        initiator: HostId(read_u32(r)?),
        seq: read_u32(r)?,
        attempt: read_u32(r)?,
    })
}

fn write_time(enc: &mut FrameEncoder, t: SimTime) {
    enc.varint(t.as_micros());
}

fn read_time(r: &mut PayloadReader<'_, '_>) -> Result<SimTime, WireError> {
    Ok(SimTime::from_micros(r.varint()?))
}

fn write_duration(enc: &mut FrameEncoder, d: SimDuration) {
    enc.varint(d.as_micros());
}

fn read_duration(r: &mut PayloadReader<'_, '_>) -> Result<SimDuration, WireError> {
    Ok(SimDuration::from_micros(r.varint()?))
}

fn write_labels(enc: &mut FrameEncoder, labels: &[Label]) {
    enc.varint(labels.len() as u64);
    for l in labels {
        enc.name(l.sym());
    }
}

fn read_labels(r: &mut PayloadReader<'_, '_>, names: &[Interned]) -> Result<Vec<Label>, WireError> {
    let n = r.varint()?;
    let n = r.guard_count(n, 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.interned(names)?.label());
    }
    Ok(out)
}

fn write_tasks(enc: &mut FrameEncoder, tasks: &[TaskId]) {
    enc.varint(tasks.len() as u64);
    for t in tasks {
        enc.name(t.sym());
    }
}

fn read_tasks(r: &mut PayloadReader<'_, '_>, names: &[Interned]) -> Result<Vec<TaskId>, WireError> {
    let n = r.varint()?;
    let n = r.guard_count(n, 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.interned(names)?.task());
    }
    Ok(out)
}

fn write_opt_string(enc: &mut FrameEncoder, s: Option<&str>) {
    match s {
        None => enc.byte(0),
        Some(s) => {
            enc.byte(1);
            enc.inline_str(s);
        }
    }
}

fn read_opt_string(r: &mut PayloadReader<'_, '_>) -> Result<Option<String>, WireError> {
    match r.byte()? {
        0 => Ok(None),
        1 => Ok(Some(r.inline_str()?.to_string())),
        _ => Err(WireError::Malformed("bad option discriminant")),
    }
}

fn read_bool(r: &mut PayloadReader<'_, '_>) -> Result<bool, WireError> {
    match r.byte()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Malformed("bad bool byte")),
    }
}

fn write_spec_payload(enc: &mut FrameEncoder, spec: &openwf_core::Spec) {
    openwf_wire::model::write_spec(enc, spec);
}

fn write_metadata(enc: &mut FrameEncoder, meta: &TaskMetadata) {
    enc.varint(meta.level as u64);
    write_labels(enc, &meta.inputs);
    write_labels(enc, &meta.outputs);
    write_opt_string(enc, meta.location.as_deref());
    write_time(enc, meta.earliest_start);
}

fn read_metadata(
    r: &mut PayloadReader<'_, '_>,
    names: &[Interned],
) -> Result<TaskMetadata, WireError> {
    Ok(TaskMetadata {
        level: r.varint()? as usize,
        inputs: read_labels(r, names)?,
        outputs: read_labels(r, names)?,
        location: read_opt_string(r)?,
        earliest_start: read_time(r)?,
    })
}

fn write_bid(enc: &mut FrameEncoder, bid: &Bid) {
    write_time(enc, bid.start);
    write_duration(enc, bid.travel);
    write_duration(enc, bid.duration);
    enc.varint(u64::from(bid.specialization));
    write_time(enc, bid.deadline);
}

fn read_bid(r: &mut PayloadReader<'_, '_>) -> Result<Bid, WireError> {
    Ok(Bid {
        start: read_time(r)?,
        travel: read_duration(r)?,
        duration: read_duration(r)?,
        specialization: read_u32(r)?,
        deadline: read_time(r)?,
    })
}

fn write_assignment(enc: &mut FrameEncoder, a: &Assignment) {
    enc.varint(u64::from(a.host.0));
    write_time(enc, a.start);
    write_duration(enc, a.duration);
    write_opt_string(enc, a.location.as_deref());
}

fn read_assignment(r: &mut PayloadReader<'_, '_>) -> Result<Assignment, WireError> {
    Ok(Assignment {
        host: HostId(read_u32(r)?),
        start: read_time(r)?,
        duration: read_duration(r)?,
        location: read_opt_string(r)?,
    })
}

fn write_plan(enc: &mut FrameEncoder, plan: &ExecutionPlan) {
    enc.varint(plan.commitments.len() as u64);
    for task in &plan.commitments {
        enc.name(task.task.sym());
        write_labels(enc, &task.inputs);
        enc.varint(task.outputs.len() as u64);
        for out in &task.outputs {
            enc.name(out.label.sym());
            enc.varint(out.consumers.len() as u64);
            for host in &out.consumers {
                enc.varint(u64::from(host.0));
            }
            enc.byte(u8::from(out.is_goal));
        }
        write_time(enc, task.start);
        write_duration(enc, task.duration);
        write_opt_string(enc, task.location.as_deref());
    }
}

fn read_plan(
    r: &mut PayloadReader<'_, '_>,
    names: &[Interned],
) -> Result<ExecutionPlan, WireError> {
    let n = r.varint()?;
    let n = r.guard_count(n, 6)?;
    let mut commitments = Vec::with_capacity(n);
    for _ in 0..n {
        let task = r.interned(names)?.task();
        let inputs = read_labels(r, names)?;
        let n_out = r.varint()?;
        let n_out = r.guard_count(n_out, 3)?;
        let mut outputs = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            let label = r.interned(names)?.label();
            let n_cons = r.varint()?;
            let n_cons = r.guard_count(n_cons, 1)?;
            let mut consumers = Vec::with_capacity(n_cons);
            for _ in 0..n_cons {
                consumers.push(HostId(read_u32(r)?));
            }
            let is_goal = read_bool(r)?;
            outputs.push(PlannedOutput {
                label,
                consumers,
                is_goal,
            });
        }
        commitments.push(PlannedTask {
            task,
            inputs,
            outputs,
            start: read_time(r)?,
            duration: read_duration(r)?,
            location: read_opt_string(r)?,
        });
    }
    Ok(ExecutionPlan { commitments })
}

/// Encodes one message as a complete `TAG_MSG` frame onto `out`.
pub fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    encode_msg_inner(msg, None, out);
}

/// [`encode_msg`] plus an explicit trace-correlation id appended as an
/// optional trailing varint. Decoders that predate the field ignore
/// nothing — the field sits *after* the variant payload, and
/// [`decode_msg`]/[`decode_msg_with`] skip it when present — while
/// [`decode_msg_traced_with`] surfaces it. The in-process drivers never
/// call this (a `Msg` already carries its `ProblemId`, which *is* the
/// correlation key, so enabling tracing cannot change wire bytes); it
/// exists for transports whose envelopes outlive a single `Msg`, e.g.
/// the planned socket driver propagating foreign trace contexts.
pub fn encode_msg_traced(msg: &Msg, trace: u64, out: &mut Vec<u8>) {
    encode_msg_inner(msg, Some(trace), out);
}

fn encode_msg_inner(msg: &Msg, trace: Option<u64>, out: &mut Vec<u8>) {
    let mut enc = FrameEncoder::new(TAG_MSG);
    match msg {
        Msg::Initiate { problem, spec } => {
            enc.byte(V_INITIATE);
            write_problem(&mut enc, *problem);
            write_spec_payload(&mut enc, spec);
        }
        Msg::FragmentQuery {
            problem,
            round,
            labels,
        } => {
            enc.byte(V_FRAGMENT_QUERY);
            write_problem(&mut enc, *problem);
            enc.varint(u64::from(*round));
            write_labels(&mut enc, labels);
        }
        Msg::FragmentReply {
            problem,
            round,
            fragments,
        } => {
            enc.byte(V_FRAGMENT_REPLY);
            write_problem(&mut enc, *problem);
            enc.varint(u64::from(*round));
            enc.varint(fragments.len() as u64);
            for f in fragments {
                write_fragment(&mut enc, f);
            }
        }
        Msg::CapabilityQuery {
            problem,
            round,
            tasks,
        } => {
            enc.byte(V_CAPABILITY_QUERY);
            write_problem(&mut enc, *problem);
            enc.varint(u64::from(*round));
            write_tasks(&mut enc, tasks);
        }
        Msg::CapabilityReply {
            problem,
            round,
            capable,
        } => {
            enc.byte(V_CAPABILITY_REPLY);
            write_problem(&mut enc, *problem);
            enc.varint(u64::from(*round));
            write_tasks(&mut enc, capable);
        }
        Msg::CallForBids {
            problem,
            task,
            meta,
        } => {
            enc.byte(V_CALL_FOR_BIDS);
            write_problem(&mut enc, *problem);
            enc.name(task.sym());
            write_metadata(&mut enc, meta);
        }
        Msg::Bid { problem, task, bid } => {
            enc.byte(V_BID);
            write_problem(&mut enc, *problem);
            enc.name(task.sym());
            write_bid(&mut enc, bid);
        }
        Msg::Decline { problem, task } => {
            enc.byte(V_DECLINE);
            write_problem(&mut enc, *problem);
            enc.name(task.sym());
        }
        Msg::Award {
            problem,
            task,
            assignment,
        } => {
            enc.byte(V_AWARD);
            write_problem(&mut enc, *problem);
            enc.name(task.sym());
            write_assignment(&mut enc, assignment);
        }
        Msg::Execute { problem, plan } => {
            enc.byte(V_EXECUTE);
            write_problem(&mut enc, *problem);
            write_plan(&mut enc, plan);
        }
        Msg::InputDelivery { problem, label } => {
            enc.byte(V_INPUT_DELIVERY);
            write_problem(&mut enc, *problem);
            enc.name(label.sym());
        }
        Msg::TaskCompleted { problem, task } => {
            enc.byte(V_TASK_COMPLETED);
            write_problem(&mut enc, *problem);
            enc.name(task.sym());
        }
        Msg::GoalDelivered { problem, label } => {
            enc.byte(V_GOAL_DELIVERED);
            write_problem(&mut enc, *problem);
            enc.name(label.sym());
        }
    }
    if let Some(trace) = trace {
        enc.varint(trace);
    }
    enc.finish(out);
}

/// Decodes one `TAG_MSG` frame from the head of `buf`, charging its
/// whole name table against `budget` before interning anything. Returns
/// the message and the bytes consumed.
///
/// # Errors
///
/// Any [`WireError`]; on [`WireError::VocabularyExceeded`] nothing was
/// interned and nothing was recorded in the budget.
pub fn decode_msg(buf: &[u8], budget: &mut VocabularyBudget) -> Result<(Msg, usize), WireError> {
    // One-shot decode: fresh scratch, identity cache off (an insert into
    // a throwaway cache is pure waste). Long-lived receive loops hold a
    // `DecodeScratch` and call `decode_msg_with` instead.
    decode_msg_with(buf, budget, &mut DecodeScratch::with_cache_capacity(0))
}

/// [`decode_msg`] with per-connection decode state: the frame's span
/// buffer is recycled, its name table is resolved in **one** interner
/// batch, fragments are staged in reused buffers, and re-announced
/// fragments are answered from the identity cache as shared
/// [`Arc<Fragment>`]s without a rebuild.
///
/// Budget semantics are identical to [`decode_msg`]: the whole name
/// table is charged *before* anything is interned or cached.
///
/// # Errors
///
/// Any [`WireError`]; on [`WireError::VocabularyExceeded`] nothing was
/// interned and nothing was recorded in the budget.
pub fn decode_msg_with(
    buf: &[u8],
    budget: &mut VocabularyBudget,
    scratch: &mut DecodeScratch,
) -> Result<(Msg, usize), WireError> {
    decode_msg_traced_with(buf, budget, scratch).map(|(msg, _, consumed)| (msg, consumed))
}

/// [`decode_msg_with`] that also surfaces the optional trailing
/// trace-correlation id written by [`encode_msg_traced`] — `None` for
/// frames from encoders that never wrote one (every frame
/// [`encode_msg`] produces), which is what keeps the field
/// backward-compatible in both directions.
///
/// # Errors
///
/// Any [`WireError`]; same budget semantics as [`decode_msg`].
pub fn decode_msg_traced_with(
    buf: &[u8],
    budget: &mut VocabularyBudget,
    scratch: &mut DecodeScratch,
) -> Result<(Msg, Option<u64>, usize), WireError> {
    let (frame, consumed) = scratch.take_frame(buf)?;
    openwf_wire::model::admit_frame(&frame, TAG_MSG, budget)?;
    scratch.resolve(&frame);
    let mut r = frame.reader();
    let variant = r.byte()?;
    let (names, frag_scratch, cache) = scratch.split();
    let msg = match variant {
        V_INITIATE => Msg::Initiate {
            problem: read_problem(&mut r)?,
            spec: read_spec_resolved(&mut r, names)?,
        },
        V_FRAGMENT_QUERY => Msg::FragmentQuery {
            problem: read_problem(&mut r)?,
            round: read_u32(&mut r)?,
            labels: read_labels(&mut r, names)?,
        },
        V_FRAGMENT_REPLY => {
            let problem = read_problem(&mut r)?;
            let round = read_u32(&mut r)?;
            let n = r.varint()?;
            let n = r.guard_count(n, 3)?;
            let mut fragments: Vec<Arc<Fragment>> = Vec::with_capacity(n);
            for _ in 0..n {
                fragments.push(read_fragment_resolved(&mut r, names, frag_scratch, cache)?);
            }
            Msg::FragmentReply {
                problem,
                round,
                fragments,
            }
        }
        V_CAPABILITY_QUERY => Msg::CapabilityQuery {
            problem: read_problem(&mut r)?,
            round: read_u32(&mut r)?,
            tasks: read_tasks(&mut r, names)?,
        },
        V_CAPABILITY_REPLY => Msg::CapabilityReply {
            problem: read_problem(&mut r)?,
            round: read_u32(&mut r)?,
            capable: read_tasks(&mut r, names)?,
        },
        V_CALL_FOR_BIDS => Msg::CallForBids {
            problem: read_problem(&mut r)?,
            task: r.interned(names)?.task(),
            meta: read_metadata(&mut r, names)?,
        },
        V_BID => Msg::Bid {
            problem: read_problem(&mut r)?,
            task: r.interned(names)?.task(),
            bid: read_bid(&mut r)?,
        },
        V_DECLINE => Msg::Decline {
            problem: read_problem(&mut r)?,
            task: r.interned(names)?.task(),
        },
        V_AWARD => Msg::Award {
            problem: read_problem(&mut r)?,
            task: r.interned(names)?.task(),
            assignment: read_assignment(&mut r)?,
        },
        V_EXECUTE => Msg::Execute {
            problem: read_problem(&mut r)?,
            plan: read_plan(&mut r, names)?,
        },
        V_INPUT_DELIVERY => Msg::InputDelivery {
            problem: read_problem(&mut r)?,
            label: r.interned(names)?.label(),
        },
        V_TASK_COMPLETED => Msg::TaskCompleted {
            problem: read_problem(&mut r)?,
            task: r.interned(names)?.task(),
        },
        V_GOAL_DELIVERED => Msg::GoalDelivered {
            problem: read_problem(&mut r)?,
            label: r.interned(names)?.label(),
        },
        other => return Err(WireError::UnknownTag(other)),
    };
    let trace = if r.remaining() > 0 {
        Some(r.varint()?)
    } else {
        None
    };
    r.expect_end()?;
    scratch.recycle(frame);
    Ok((msg, trace, consumed))
}

/// True when the `TAG_MSG` frame at the head of `buf` carries a
/// `FragmentReply` — the message family through which a peer mints
/// *knowhow* names of its own choosing (every other message echoes
/// names from specs, queries and plans that originate elsewhere).
/// Frame receivers use this to decide whether an over-budget frame is
/// evidence against its sender (`HostCore::handle_frame` blames — and
/// eventually quarantines — only for replies); it costs a full frame
/// parse, so keep it off decode hot paths.
///
/// # Errors
///
/// Any [`WireError`] from frame parsing or an empty payload.
pub fn frame_is_fragment_reply(buf: &[u8]) -> Result<bool, WireError> {
    let (frame, _) = read_frame(buf)?;
    if frame.tag != TAG_MSG {
        return Err(WireError::UnknownTag(frame.tag));
    }
    Ok(frame.reader().byte()? == V_FRAGMENT_REPLY)
}

/// The exact encoded size of a message in bytes (one full frame).
///
/// Allocates a scratch buffer per call; the simulator's bandwidth model
/// keeps its cheap arithmetic approximation
/// ([`Msg::wire_size`](openwf_simnet::Message::wire_size))
/// on the hot path and uses this for calibration.
pub fn encoded_len(msg: &Msg) -> usize {
    let mut buf = Vec::new();
    encode_msg(msg, &mut buf);
    buf.len()
}

/// Runs a fragment reply through the wire: encodes it as a
/// `FragmentReply` frame and decodes it back, charging the frame's name
/// table against `budget` first. Returns freshly decoded fragments (no
/// allocation shared with the sender) — what a networked host would
/// actually hold after receiving the reply.
///
/// This is the in-process simulator's stand-in for receiving the reply
/// off the wire: the vocabulary check runs at decode, *before* any peer
/// name would be interned, rather than at reply admission.
///
/// # Errors
///
/// Any [`WireError`]; on [`WireError::VocabularyExceeded`] the budget
/// and interner are untouched and the reply must be dropped.
pub fn reply_through_wire(
    problem: ProblemId,
    round: u32,
    fragments: Vec<Arc<Fragment>>,
    budget: &mut VocabularyBudget,
) -> Result<Vec<Arc<Fragment>>, WireError> {
    reply_through_wire_with(
        problem,
        round,
        fragments,
        budget,
        &mut DecodeScratch::with_cache_capacity(0),
    )
}

/// [`reply_through_wire`] with per-connection decode state — the
/// receive path a long-lived host uses so repeated reply traffic hits
/// the fragment-identity cache and reuses all decode buffers.
///
/// # Errors
///
/// Same as [`reply_through_wire`].
pub fn reply_through_wire_with(
    problem: ProblemId,
    round: u32,
    fragments: Vec<Arc<Fragment>>,
    budget: &mut VocabularyBudget,
    scratch: &mut DecodeScratch,
) -> Result<Vec<Arc<Fragment>>, WireError> {
    let msg = Msg::FragmentReply {
        problem,
        round,
        fragments,
    };
    let mut buf = Vec::new();
    encode_msg(&msg, &mut buf);
    match decode_msg_with(&buf, budget, scratch)? {
        (Msg::FragmentReply { fragments, .. }, _) => Ok(fragments),
        _ => unreachable!("a FragmentReply frame decodes to a FragmentReply"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Mode, Spec};

    fn p() -> ProblemId {
        ProblemId {
            initiator: HostId(3),
            seq: 42,
            attempt: 1,
        }
    }

    fn frag(id: &str) -> Arc<Fragment> {
        Arc::new(
            Fragment::single_task(id, format!("{id}-t"), Mode::Disjunctive, ["rc-a"], ["rc-b"])
                .unwrap(),
        )
    }

    fn round_trip(msg: &Msg) -> Msg {
        let mut bytes = Vec::new();
        encode_msg(msg, &mut bytes);
        let (decoded, consumed) =
            decode_msg(&bytes, &mut VocabularyBudget::unlimited()).expect("valid frame");
        assert_eq!(consumed, bytes.len());
        // Bit-identical re-encode.
        let mut re = Vec::new();
        encode_msg(&decoded, &mut re);
        assert_eq!(re, bytes, "decode → encode must reproduce the bytes");
        decoded
    }

    #[test]
    fn traced_frames_round_trip_and_untraced_frames_read_as_none() {
        let msg = Msg::TaskCompleted {
            problem: p(),
            task: TaskId::new("rc-t"),
        };
        let mut plain = Vec::new();
        encode_msg(&msg, &mut plain);
        let mut traced = Vec::new();
        encode_msg_traced(&msg, p().trace_id(), &mut traced);
        assert!(
            traced.len() > plain.len(),
            "the trace id is extra trailing bytes"
        );

        let mut scratch = DecodeScratch::with_cache_capacity(0);
        let (decoded, trace, consumed) =
            decode_msg_traced_with(&traced, &mut VocabularyBudget::unlimited(), &mut scratch)
                .expect("traced frame decodes");
        assert_eq!(consumed, traced.len());
        assert_eq!(trace, Some(p().trace_id()));
        assert_eq!(format!("{decoded:?}"), format!("{msg:?}"));

        // A decoder unaware of the field skips it.
        let (decoded, consumed) =
            decode_msg_with(&traced, &mut VocabularyBudget::unlimited(), &mut scratch)
                .expect("traced frame decodes on the untraced path");
        assert_eq!(consumed, traced.len());
        assert_eq!(format!("{decoded:?}"), format!("{msg:?}"));

        // A pre-field frame reports no trace id.
        let (_, trace, _) =
            decode_msg_traced_with(&plain, &mut VocabularyBudget::unlimited(), &mut scratch)
                .expect("plain frame decodes on the traced path");
        assert_eq!(trace, None);
    }

    #[test]
    fn every_variant_round_trips() {
        let meta = TaskMetadata {
            level: 2,
            inputs: vec![Label::new("rc-a")],
            outputs: vec![Label::new("rc-b")],
            location: Some("kitchen".into()),
            earliest_start: SimTime::from_micros(5_000),
        };
        let plan = ExecutionPlan {
            commitments: vec![PlannedTask {
                task: TaskId::new("rc-t"),
                inputs: vec![Label::new("rc-a")],
                outputs: vec![PlannedOutput {
                    label: Label::new("rc-b"),
                    consumers: vec![HostId(1), HostId(4)],
                    is_goal: true,
                }],
                start: SimTime::from_micros(10),
                duration: SimDuration::from_micros(20),
                location: None,
            }],
        };
        let msgs = vec![
            Msg::Initiate {
                problem: p(),
                spec: Spec::new(["rc-a"], ["rc-b"]),
            },
            Msg::FragmentQuery {
                problem: p(),
                round: 7,
                labels: vec![Label::new("rc-a"), Label::new("rc-b")],
            },
            Msg::FragmentReply {
                problem: p(),
                round: 7,
                fragments: vec![frag("rc-f1"), frag("rc-f2")],
            },
            Msg::CapabilityQuery {
                problem: p(),
                round: 1,
                tasks: vec![TaskId::new("rc-t")],
            },
            Msg::CapabilityReply {
                problem: p(),
                round: 1,
                capable: vec![TaskId::new("rc-t")],
            },
            Msg::CallForBids {
                problem: p(),
                task: TaskId::new("rc-t"),
                meta,
            },
            Msg::Bid {
                problem: p(),
                task: TaskId::new("rc-t"),
                bid: Bid {
                    start: SimTime::from_micros(1),
                    travel: SimDuration::from_micros(2),
                    duration: SimDuration::from_micros(3),
                    specialization: 4,
                    deadline: SimTime::from_micros(5),
                },
            },
            Msg::Decline {
                problem: p(),
                task: TaskId::new("rc-t"),
            },
            Msg::Award {
                problem: p(),
                task: TaskId::new("rc-t"),
                assignment: Assignment {
                    host: HostId(2),
                    start: SimTime::from_micros(9),
                    duration: SimDuration::from_micros(8),
                    location: Some("yard".into()),
                },
            },
            Msg::Execute { problem: p(), plan },
            Msg::InputDelivery {
                problem: p(),
                label: Label::new("rc-a"),
            },
            Msg::TaskCompleted {
                problem: p(),
                task: TaskId::new("rc-t"),
            },
            Msg::GoalDelivered {
                problem: p(),
                label: Label::new("rc-b"),
            },
        ];
        for msg in &msgs {
            let decoded = round_trip(msg);
            assert_eq!(
                format!("{decoded:?}"),
                format!("{msg:?}"),
                "structural equality via Debug"
            );
        }
    }

    #[test]
    fn reply_shares_one_name_table_across_fragments() {
        // Two fragments over the same labels: the second costs only its
        // fresh id/task names on the wire.
        let one = Msg::FragmentReply {
            problem: p(),
            round: 0,
            fragments: vec![frag("rc-share-1")],
        };
        let two = Msg::FragmentReply {
            problem: p(),
            round: 0,
            fragments: vec![frag("rc-share-1"), frag("rc-share-2")],
        };
        let (a, b) = (encoded_len(&one), encoded_len(&two));
        assert!(
            b - a < a,
            "second fragment reuses the table: {a} then +{}",
            b - a
        );
    }

    #[test]
    fn over_budget_reply_is_rejected_at_decode() {
        let fragments = vec![frag("rc-cap-1")]; // 5 distinct names
        let mut budget = VocabularyBudget::with_cap(3);
        let err = reply_through_wire(p(), 0, fragments.clone(), &mut budget).unwrap_err();
        assert!(matches!(err, WireError::VocabularyExceeded { cap: 3, .. }));
        assert_eq!(budget.len(), 0, "rejected frame records nothing");

        let mut budget = VocabularyBudget::with_cap(10);
        let decoded = reply_through_wire(p(), 0, fragments.clone(), &mut budget).unwrap();
        assert_eq!(decoded.len(), 1);
        assert!(
            !Arc::ptr_eq(&decoded[0], &fragments[0]),
            "decoded fragments are fresh allocations, not the sender's"
        );
        assert_eq!(decoded[0].id().as_str(), "rc-cap-1");
    }

    #[test]
    fn unknown_variant_is_rejected() {
        let mut enc = FrameEncoder::new(TAG_MSG);
        enc.byte(200);
        let mut bytes = Vec::new();
        enc.finish(&mut bytes);
        assert_eq!(
            decode_msg(&bytes, &mut VocabularyBudget::unlimited()).unwrap_err(),
            WireError::UnknownTag(200)
        );
    }

    #[test]
    fn exact_size_tracks_content() {
        let small = Msg::TaskCompleted {
            problem: p(),
            task: TaskId::new("rc-t"),
        };
        let big = Msg::FragmentReply {
            problem: p(),
            round: 0,
            fragments: (0..20).map(|i| frag(&format!("rc-sz-{i}"))).collect(),
        };
        assert!(encoded_len(&small) < 64);
        assert!(encoded_len(&big) > encoded_len(&small) * 4);
    }
}
