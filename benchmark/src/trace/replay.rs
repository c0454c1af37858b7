//! `wire` and `frame` costs by replay: the envelopes sampled during the
//! traced trial are pushed through `WireMsg::{from_wire, to_wire}` and
//! `encode_frame` / `read_frame` again, on an in-memory cursor, after the
//! run — the codec is timed on the traffic the workload really produced
//! without a clock read inside the serve loop.

use shmem_net::frame::{encode_frame, read_frame};
use shmem_net::wire::WireMsg;
use shmem_net::Envelope;
use shmem_sim::NodeId;
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

/// Codec calls each replayed figure is averaged over, at least.
const MIN_CALLS: usize = 200_000;

/// Nanoseconds per message of one direction's codec.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Codec {
    /// Messages sampled.
    pub sampled: usize,
    /// Mean payload bytes.
    pub bytes: f64,
    /// `from_wire` per message.
    pub wire_decode_ns: f64,
    /// `to_wire` per message.
    pub wire_encode_ns: f64,
    /// `encode_frame` per message.
    pub frame_encode_ns: f64,
    /// `read_frame` (from memory) per message.
    pub frame_decode_ns: f64,
}

/// The replayed codec costs of a traced trial.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Replay {
    /// Client → server messages.
    pub requests: Codec,
    /// Server → client messages.
    pub replies: Codec,
}

impl Replay {
    /// A per-message figure over both directions, weighted by how many of
    /// each were sampled (every message is encoded once and decoded once,
    /// so this is the per-message cost on the wire as a whole).
    pub fn overall(&self, pick: impl Fn(&Codec) -> f64) -> f64 {
        let (a, b) = (self.requests.sampled as f64, self.replies.sampled as f64);
        if a + b == 0.0 {
            return 0.0;
        }
        (pick(&self.requests) * a + pick(&self.replies) * b) / (a + b)
    }
}

/// Mean nanoseconds of `call(i)` over `items`, repeated until at least
/// [`MIN_CALLS`] calls have been timed.
fn ns_per_call(items: usize, mut call: impl FnMut(usize)) -> f64 {
    let rounds = MIN_CALLS.div_ceil(items);
    let start = Instant::now();
    for _ in 0..rounds {
        for i in 0..items {
            call(i);
        }
    }
    start.elapsed().as_nanos() as f64 / (rounds * items) as f64
}

fn codec_of<M: WireMsg>(sample: &[&Envelope]) -> Codec {
    if sample.is_empty() {
        return Codec::default();
    }
    let decoded: Vec<M> = sample
        .iter()
        .map(|e| M::from_wire(&e.payload).expect("a payload the program itself encoded"))
        .collect();
    let frames: Vec<Vec<u8>> = sample.iter().map(|e| encode_frame(e)).collect();
    Codec {
        sampled: sample.len(),
        bytes: sample.iter().map(|e| e.payload.len()).sum::<usize>() as f64 / sample.len() as f64,
        wire_decode_ns: ns_per_call(sample.len(), |i| {
            black_box(M::from_wire(black_box(&sample[i].payload)).is_ok());
        }),
        wire_encode_ns: ns_per_call(sample.len(), |i| {
            black_box(black_box(&decoded[i]).to_wire());
        }),
        frame_encode_ns: ns_per_call(sample.len(), |i| {
            black_box(encode_frame(black_box(sample[i])));
        }),
        frame_decode_ns: ns_per_call(sample.len(), |i| {
            black_box(read_frame(&mut Cursor::new(black_box(&frames[i]))).is_ok());
        }),
    }
}

/// Replays `sample` (envelopes a [`super::TimedTransport`] kept) through
/// the wire and frame codecs.
pub fn replay<M: WireMsg>(sample: &[Envelope]) -> Replay {
    let (requests, replies): (Vec<&Envelope>, Vec<&Envelope>) = sample
        .iter()
        .partition(|e| matches!(e.from, NodeId::Client(_)));
    Replay {
        requests: codec_of::<M>(&requests),
        replies: codec_of::<M>(&replies),
    }
}
