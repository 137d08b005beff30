//! Every input a workload gives the program, generated from the run's
//! seed: the know-how supergraph and its split over hosts, the problem
//! specs, the operator ingest stream and the pre-built durable logs.
//! Nothing here is timed as set-up.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use openwf_core::{Fragment, Label, Mode, Spec, TaskId};
use openwf_net::proto::encode_envelope;
use openwf_runtime::HostConfig;
use openwf_scenario::{distribute_knowledge, GeneratedKnowledge};
use openwf_simnet::{HostId, SimDuration};
use openwf_wire::DurableFragmentStore;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Independent sub-seeds for each input stream of one run (splitmix64).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One problem the load generator submits.
pub struct Problem {
    pub spec: Spec,
    /// The complete SPEC envelope frame, ready to write to a socket.
    pub envelope: Vec<u8>,
}

/// One open-loop ingest batch of FRAGMENT envelopes for one host, due
/// `due` after the measured phase starts.
pub struct IngestBatch {
    pub due: Duration,
    /// Fragments in the batch whose id the store has not held before:
    /// how much the store grows once it holds the batch.
    pub fresh: usize,
    pub bytes: Vec<u8>,
}

/// The know-how of a serve community: the §5 generated supergraph split
/// 1/n over the hosts, fragments and zero-time services independently.
pub struct Community {
    pub knowledge: GeneratedKnowledge,
    pub configs: Vec<HostConfig>,
}

pub fn community(tasks: usize, hosts: usize, seed: u64) -> Community {
    let knowledge = GeneratedKnowledge::generate(tasks, derive(seed, 1));
    let mut rng = StdRng::seed_from_u64(derive(seed, 2));
    let configs = distribute_knowledge(&knowledge, hosts, SimDuration::ZERO, &mut rng);
    Community { knowledge, configs }
}

/// `count` satisfiable problems with path lengths uniform in
/// `lengths`, each addressed by the client host `from` to `to`.
pub fn problems(
    knowledge: &GeneratedKnowledge,
    lengths: (usize, usize),
    count: usize,
    seed: u64,
    from: HostId,
    to: HostId,
) -> Vec<Problem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let length = rng.random_range(lengths.0..=lengths.1);
        let Some(path) = knowledge.sample_path(length, &mut rng, 256) else {
            continue;
        };
        let mut inner = Vec::new();
        openwf_wire::encode_spec(&path.spec, &mut inner);
        let mut envelope = Vec::new();
        encode_envelope(0, from, to, None, &inner, &mut envelope);
        out.push(Problem {
            spec: path.spec,
            envelope,
        });
    }
    out
}

/// A single-task fragment over a vocabulary disjoint from the generated
/// supergraph's (`f*`, `t*`, `o*`), so ingest and filler never join a
/// construction.
fn side_fragment(id: String, task: usize, input: usize, output: usize) -> Fragment {
    Fragment::single_task(
        id,
        TaskId::new(format!("zt{task}")),
        Mode::Disjunctive,
        [Label::new(format!("zi{input}"))],
        [Label::new(format!("zo{output}"))],
    )
    .expect("a one-input one-output task is a valid fragment")
}

/// Ingest fragments supersede ids from a pool this large, so a long run
/// writes its full rate into the store without growing it.
const INGEST_POOL: usize = 4_096;

/// The open-loop ingest stream for one run: `rate` fragments per second
/// for `seconds`, in batches every `period`, addressed to `to`. Each
/// batch rewrites ids from a fixed pool and ends with one fresh marker
/// fragment, so every batch grows the store and is seen arriving.
pub fn ingest_stream(
    rate: usize,
    period: Duration,
    seconds: u64,
    seed: u64,
    from: HostId,
    to: HostId,
) -> Vec<IngestBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_batch = ((rate as f64) * period.as_secs_f64()).round().max(1.0) as usize;
    let batches = (Duration::from_secs(seconds).as_nanos() / period.as_nanos()) as usize;
    let mut written = vec![false; INGEST_POOL];
    let mut frame = Vec::new();
    (0..batches)
        .map(|b| {
            let mut bytes = Vec::new();
            let mut fresh = 1;
            for i in 0..per_batch {
                let id = if i + 1 == per_batch {
                    format!("zm{b}")
                } else {
                    let slot = rng.random_range(0..INGEST_POOL);
                    fresh += usize::from(!std::mem::replace(&mut written[slot], true));
                    format!("zg{slot}")
                };
                let fragment = side_fragment(
                    id,
                    rng.random_range(0..512),
                    rng.random_range(0..256),
                    rng.random_range(0..256),
                );
                frame.clear();
                openwf_wire::encode_fragment(&fragment, &mut frame);
                encode_envelope(0, from, to, None, &frame, &mut bytes);
            }
            IngestBatch {
                due: period * b as u32,
                fresh,
                bytes,
            }
        })
        .collect()
}

/// Writes a durable log at `dir` holding `knowhow` plus `live` filler
/// fragments, each written `versions` times (so `1 - 1/versions` of the
/// filler records are superseded garbage). Returns the records written.
pub fn prebuild_log(
    dir: &Path,
    knowhow: &[Arc<Fragment>],
    live: usize,
    versions: usize,
    seed: u64,
    host: usize,
) -> std::io::Result<u64> {
    let mut store = DurableFragmentStore::open(dir).map_err(std::io::Error::other)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = 0u64;
    for fragment in knowhow {
        store
            .insert(Arc::clone(fragment))
            .map_err(std::io::Error::other)?;
        records += 1;
    }
    for _ in 0..versions {
        for k in 0..live {
            let fragment = side_fragment(
                format!("zd{host}-{k}"),
                rng.random_range(0..512),
                rng.random_range(0..256),
                rng.random_range(0..256),
            );
            store.insert(fragment).map_err(std::io::Error::other)?;
            records += 1;
        }
    }
    store.sync().map_err(std::io::Error::other)?;
    Ok(records)
}
