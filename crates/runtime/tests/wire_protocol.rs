//! Wire-protocol integration tests: the message codec under fuzzing,
//! decode-time vocabulary enforcement vs the admission-time reference
//! implementation, per-peer rejection counters, and durable-storage
//! hosts surviving restarts.

use std::path::PathBuf;
use std::sync::Arc;

use openwf_core::{Fragment, Label, Mode, Spec};
use openwf_runtime::codec::{decode_msg, encode_msg, reply_through_wire};
use openwf_runtime::vocab::VocabularyGuard;
use openwf_runtime::{
    CommunityBuilder, Driver, HostConfig, Msg, ProblemId, ProblemStatus, ServiceDescription,
    StorageConfig,
};
use openwf_simnet::{HostId, SimDuration};
use openwf_wire::VocabularyBudget;
use proptest::prelude::*;

fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

fn service(task: &str, secs: u64) -> ServiceDescription {
    ServiceDescription::new(task, SimDuration::from_secs(secs))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "openwf-wireproto-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Recipe for one generated single-task fragment over a small shared
/// label pool — the same vocabulary shape the admission guard was
/// originally tested with.
fn build_payload(case: &[(u8, u8, u8)], tag: &str) -> Vec<Arc<Fragment>> {
    case.iter()
        .enumerate()
        .map(|(i, &(a, b, c))| {
            Arc::new(
                Fragment::single_task(
                    format!("{tag}-f{}", a % 16),
                    format!("{tag}-t{}", b % 16),
                    Mode::Disjunctive,
                    [format!("{tag}-in{}", c % 16)],
                    [format!("{tag}-out{}", (a ^ b ^ c) % 16)],
                )
                .unwrap_or_else(|_| {
                    Fragment::single_task(
                        format!("{tag}-f{i}"),
                        format!("{tag}-t{i}"),
                        Mode::Disjunctive,
                        [format!("{tag}-in{i}")],
                        [format!("{tag}-out{i}")],
                    )
                    .unwrap()
                }),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The decode-time budget and the admission-time guard accept and
    /// reject exactly the same reply sequences, with identical
    /// distinct-name accounting — the "moved, not changed" contract.
    #[test]
    fn decode_budget_agrees_with_admission_guard(
        payloads in collection::vec(collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5), 1..5),
        cap in 1usize..40,
        seed_own in any::<bool>(),
    ) {
        let mut guard = VocabularyGuard::new(Some(cap));
        let mut budget = VocabularyBudget::with_cap(cap);
        if seed_own {
            let own = frag("vgb-own", "vgb-own-t", "vgb-own-a", "vgb-own-b");
            guard.seed(&own);
            budget.seed_fragment(&own);
        }
        let problem = ProblemId::new(HostId(0), 0);
        for (round, case) in payloads.iter().enumerate() {
            let fragments = build_payload(case, "vgb");
            let admitted = guard.admit(&fragments);
            let decoded =
                reply_through_wire(problem, round as u32, fragments, &mut budget);
            prop_assert_eq!(
                admitted.is_ok(),
                decoded.is_ok(),
                "guard and budget disagree on round {}", round
            );
            prop_assert_eq!(guard.len(), budget.len(), "accounting diverged");
        }
    }

    /// Every truncation of a valid message frame errors; arbitrary bit
    /// flips never panic the decoder.
    #[test]
    fn message_decoder_survives_hostile_input(
        case in collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
        flips in collection::vec((any::<u16>(), 0u8..8), 1..5),
        cap in 1usize..32,
    ) {
        let msg = Msg::FragmentReply {
            problem: ProblemId::new(HostId(1), 9),
            round: 3,
            fragments: build_payload(&case, "mfz"),
        };
        let mut bytes = Vec::new();
        encode_msg(&msg, &mut bytes);
        for cut in 0..bytes.len() {
            prop_assert!(decode_msg(&bytes[..cut], &mut VocabularyBudget::unlimited()).is_err());
        }
        for &(pos, bit) in &flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= 1 << bit;
        }
        let _ = decode_msg(&bytes, &mut VocabularyBudget::unlimited());
        let _ = decode_msg(&bytes, &mut VocabularyBudget::with_cap(cap));
    }
}

/// A capped community rejects the minting peer's replies at decode and
/// books the rejection against that peer — the rate-limit groundwork.
#[test]
fn per_peer_rejection_counters_identify_the_minting_peer() {
    let mut community = CommunityBuilder::new(77)
        .host(
            HostConfig::new()
                .with_fragment(frag("ppr-f0", "ppr-t0", "ppr-a", "ppr-b"))
                .with_service(service("ppr-t0", 1))
                .with_vocabulary_cap(4),
        )
        .host(HostConfig::new().with_fragment(frag("ppr-f1", "ppr-t1", "ppr-b", "ppr-c")))
        .host(HostConfig::new())
        .build();
    let hosts = community.hosts();
    let handle = community.submit(hosts[0], Spec::new(["ppr-a"], ["ppr-c"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Failed { .. }),
        "{report}"
    );
    let initiator = community.core(hosts[0]);
    assert!(initiator.vocabulary_rejections() > 0);
    assert_eq!(
        initiator.vocabulary_rejections(),
        initiator.vocabulary_rejections_from(hosts[1]),
        "every rejection books against the minting peer"
    );
    assert_eq!(
        initiator.vocabulary_rejections_from(hosts[2]),
        0,
        "the empty-knowhow peer is clean"
    );
}

/// Capped hosts interoperate through the real codec: an in-budget
/// community completes its problem with every reply crossing the wire.
#[test]
fn capped_in_budget_community_completes_through_the_wire() {
    let mut community = CommunityBuilder::new(78)
        .host(
            HostConfig::new()
                .with_fragment(frag("wok-f0", "wok-t0", "wok-a", "wok-b"))
                .with_service(service("wok-t0", 1))
                .with_service(service("wok-t1", 1))
                .with_vocabulary_cap(16),
        )
        .host(HostConfig::new().with_fragment(frag("wok-f1", "wok-t1", "wok-b", "wok-c")))
        .build();
    let hosts = community.hosts();
    let handle = community.submit(hosts[0], Spec::new(["wok-a"], ["wok-c"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    assert_eq!(community.core(hosts[0]).vocabulary_rejections(), 0);
}

/// A durable-storage host works end to end, and a "restarted" host
/// (fresh manager over the same log directory) reconstructs the same
/// knowhow database.
#[test]
fn durable_host_completes_and_survives_restart() {
    let dir = tmp_dir("e2e");
    let storage = StorageConfig::Durable {
        dir: dir.clone(),
        segment_bytes: 4096,
        policy: openwf_wire::StoragePolicy::default(),
    };
    {
        let mut community = CommunityBuilder::new(79)
            .host(
                HostConfig::new()
                    .with_fragment(frag("dur-f0", "dur-t0", "dur-a", "dur-b"))
                    .with_fragment(frag("dur-f1", "dur-t1", "dur-b", "dur-c"))
                    .with_service(service("dur-t0", 1))
                    .with_service(service("dur-t1", 1))
                    .with_storage(storage.clone()),
            )
            .build();
        let h = community.hosts()[0];
        let handle = community.submit(h, Spec::new(["dur-a"], ["dur-c"]));
        let report = community.run_until_complete(handle);
        assert!(
            matches!(report.status, ProblemStatus::Completed),
            "{report}"
        );
        assert_eq!(community.core(h).vocabulary_rejections(), 0);
    }
    // Restart: a fresh host over the same log replays both fragments and
    // completes the same problem with NO fragments supplied in config.
    let mut community = CommunityBuilder::new(80)
        .host(
            HostConfig::new()
                .with_service(service("dur-t0", 1))
                .with_service(service("dur-t1", 1))
                .with_storage(storage),
        )
        .build();
    let h = community.hosts()[0];
    let handle = community.submit(h, Spec::new(["dur-a"], ["dur-c"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "restarted host must rebuild its knowhow from the log: {report}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A capped durable host restarted over its log re-seeds the vocabulary
/// budget from the *replayed* knowhow, and re-running the same config
/// does not grow the log: the trust-boundary accounting and the disk
/// footprint are both restart-stable.
#[test]
fn capped_durable_restart_reseeds_budget_and_keeps_log_flat() {
    use openwf_runtime::{OwmsHost, RuntimeParams};
    let dir = tmp_dir("reseed");
    let storage = StorageConfig::Durable {
        dir: dir.clone(),
        segment_bytes: openwf_wire::DEFAULT_SEGMENT_BYTES,
        policy: openwf_wire::StoragePolicy::default(),
    };
    let config = || {
        HostConfig::new()
            .with_fragment(frag("rsd-f0", "rsd-t0", "rsd-a", "rsd-b"))
            .with_vocabulary_cap(8)
            .with_storage(storage.clone())
    };
    let host = OwmsHost::new(config(), RuntimeParams::default());
    assert_eq!(
        host.core().vocabulary_names(),
        4,
        "id + task + two labels seeded"
    );
    drop(host);
    let log_size = |dir: &std::path::Path| -> u64 {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum()
    };
    let after_first = log_size(&dir);

    // Restart 1: same config. The fragment replays from the log, the
    // budget must still see all 4 own names, and the log must not grow.
    let host = OwmsHost::new(config(), RuntimeParams::default());
    assert_eq!(
        host.core().vocabulary_names(),
        4,
        "replayed knowhow re-seeds the budget"
    );
    drop(host);
    assert_eq!(
        log_size(&dir),
        after_first,
        "re-running the same config must not append duplicate records"
    );

    // Restart 2: NO config fragments at all — the budget still seeds
    // from the log alone.
    let bare = HostConfig::new()
        .with_vocabulary_cap(8)
        .with_storage(storage.clone());
    let host = OwmsHost::new(bare, RuntimeParams::default());
    assert_eq!(host.core().vocabulary_names(), 4);
    drop(host);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An aggressive snapshot/compaction policy wired through
/// `HostConfig::with_storage_policy` keeps the log bounded while
/// repeated config "upgrades" churn every fragment, and a restarted
/// host still rebuilds the **latest** knowhow from snapshot + tail.
#[test]
fn storage_policy_compacts_log_and_restart_keeps_latest_knowhow() {
    use openwf_runtime::{OwmsHost, RuntimeParams};
    let dir = tmp_dir("policy");
    let base = || {
        HostConfig::new()
            .with_storage(StorageConfig::Durable {
                dir: dir.clone(),
                segment_bytes: 512,
                policy: openwf_wire::StoragePolicy::default(),
            })
            .with_storage_policy(
                openwf_wire::StoragePolicy::manual()
                    .snapshot_every(8)
                    .compact_below_live_percent(50)
                    .compact_min_bytes(1),
            )
    };
    // Four generations of the same 16 fragment ids: each re-run
    // supersedes the whole knowhow set, so most of the insert history
    // is garbage the policy should reclaim.
    for generation in 0..4 {
        let mut config = base();
        for i in 0..16 {
            config = config.with_fragment(frag(
                &format!("pol-f{i}"),
                &format!("pol-t{i}"),
                &format!("pol-a{i}-g{generation}"),
                &format!("pol-b{i}-g{generation}"),
            ));
        }
        drop(OwmsHost::new(config, RuntimeParams::default()));
    }
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().to_str().map(String::from))
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("snap-")),
        "policy produced a snapshot: {names:?}"
    );

    // Restart with no config fragments: the store holds exactly the 16
    // live fragments carrying the final generation's labels.
    let mut host = OwmsHost::new(base(), RuntimeParams::default());
    let fm = host.core_mut().fragment_mgr_mut();
    assert_eq!(fm.len(), 16, "one live fragment per id");
    assert_eq!(
        fm.query(&[Label::new("pol-a3-g3")]).len(),
        1,
        "latest generation survives"
    );
    assert!(
        fm.query(&[Label::new("pol-a3-g0")]).is_empty(),
        "superseded generation is gone"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The simulator's arithmetic `wire_size` approximation and the exact
/// codec agree on ordering: bigger payloads are bigger on the real wire
/// too.
#[test]
fn wire_size_approximation_orders_like_the_codec() {
    use openwf_simnet::Message;
    let p = ProblemId::new(HostId(0), 0);
    let small = Msg::FragmentQuery {
        problem: p,
        round: 0,
        labels: vec![Label::new("wsz-a")],
    };
    let big = Msg::FragmentReply {
        problem: p,
        round: 0,
        fragments: (0..12)
            .map(|i| {
                Arc::new(frag(
                    &format!("wsz-f{i}"),
                    &format!("wsz-t{i}"),
                    "wsz-in",
                    "wsz-out",
                ))
            })
            .collect(),
    };
    let approx = (small.wire_size(), big.wire_size());
    let exact = (
        openwf_runtime::codec::encoded_len(&small),
        openwf_runtime::codec::encoded_len(&big),
    );
    assert!(approx.0 < approx.1);
    assert!(exact.0 < exact.1);
}
