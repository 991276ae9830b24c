//! Property tests of the table-persistence format: round-trips must
//! reproduce labelings bit-identically (including a non-empty
//! dynamic-cost signature interner), and damaged files must be rejected
//! — never mislabeled, never a panic.

use std::sync::Arc;

use odburg::prelude::*;
use odburg::select::persist;
use proptest::prelude::*;

/// Warms an automaton for x86ish (which has dynamic-cost rules, so the
/// signature interner is exercised) on a seed-dependent random workload.
fn warmed(seed: u64) -> (OnDemandAutomaton, Forest) {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let mut auto = OnDemandAutomaton::new(Arc::clone(&normal));
    let workload = odburg::workloads::random_workload(&normal, seed, 40);
    auto.label_forest(&workload.forest)
        .expect("workload labels");
    (auto, workload.forest)
}

fn exported(auto: &OnDemandAutomaton) -> Vec<u8> {
    let mut bytes = Vec::new();
    persist::write_tables_to(&auto.snapshot(), &mut bytes).expect("export succeeds");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn round_trip_reproduces_labelings_bit_identically(seed in 0u64..512) {
        let (mut auto, forest) = warmed(seed);
        let bytes = exported(&auto);

        let imported = persist::read_tables_from(
            &bytes[..],
            Arc::clone(auto.grammar()),
            auto.config(),
        )
        .expect("import succeeds");
        prop_assert_eq!(imported.stats(), auto.snapshot().stats());
        // Random payloads hit the dynamic-cost rules, so the interner
        // carries real signatures through the round-trip.
        prop_assert!(imported.stats().signatures > 1);

        let mut warm = OnDemandAutomaton::from_snapshot(&imported);
        let warm_labeling = warm.label_forest(&forest).expect("warm labels");
        prop_assert_eq!(
            warm.counters().memo_misses, 0,
            "everything the exporter saw must hit after import"
        );
        let original = auto.label_forest(&forest).expect("original labels");
        prop_assert_eq!(warm_labeling, original);
    }

    #[test]
    fn truncated_files_are_rejected(seed in 0u64..256) {
        let (auto, _) = warmed(seed % 4);
        let bytes = exported(&auto);
        let cut = (seed as usize * 131) % bytes.len();
        let err = persist::read_tables_from(
            &bytes[..cut],
            Arc::clone(auto.grammar()),
            auto.config(),
        )
        .expect_err("truncated file must be rejected");
        prop_assert!(matches!(
            err,
            persist::PersistError::Truncated | persist::PersistError::BadMagic
        ));
    }

    #[test]
    fn corrupted_files_are_rejected(seed in 0u64..256) {
        let (auto, _) = warmed(seed % 4);
        let mut bytes = exported(&auto);
        let pos = (seed as usize * 257) % bytes.len();
        bytes[pos] ^= 1 << (seed % 8);
        if persist::read_tables_from(&bytes[..], Arc::clone(auto.grammar()), auto.config()).is_ok() {
            // The only flip that can survive every integrity check is one
            // that flipped nothing.
            prop_assert_eq!(bytes, exported(&auto));
        }
    }
}

#[test]
fn only_cross_grammar_imports_are_rejected() {
    let (auto, _) = warmed(0);
    let bytes = exported(&auto);

    for other in [
        OnDemandConfig {
            state_budget: 4096,
            ..auto.config()
        },
        OnDemandConfig {
            memory_budget: Some(MemoryBudget::compact(1 << 20, 0.5)),
            ..auto.config()
        },
    ] {
        let imported = persist::read_tables_from(&bytes[..], Arc::clone(auto.grammar()), other)
            .expect("another configuration imports");
        assert_eq!(imported.config(), other);
    }

    let other = Arc::new(odburg::targets::riscish().normalize());
    assert!(matches!(
        persist::read_tables_from(&bytes[..], other, auto.config()),
        Err(persist::PersistError::GrammarMismatch { .. })
    ));
}

/// A configuration bounds the memo without changing what an entry means,
/// so a table file carries none: on every built-in, tables grown from one
/// workload under four configurations export the same bytes, and the file
/// imports under each of them, runs under the importer's configuration
/// and relabels the workload warm, into the same states.
#[test]
fn tables_carry_no_configuration() {
    let configs = [
        OnDemandConfig::default(),
        OnDemandConfig {
            state_budget: 4096,
            ..OnDemandConfig::default()
        },
        OnDemandConfig {
            memory_budget: Some(MemoryBudget::compact(1 << 30, 0.5)),
            ..OnDemandConfig::default()
        },
        OnDemandConfig {
            memory_budget: Some(MemoryBudget::flush(1 << 30)),
            ..OnDemandConfig::default()
        },
    ];
    for grammar in odburg::targets::all() {
        let normal = Arc::new(grammar.normalize());
        let forest = odburg::workloads::random_workload(&normal, 7, 64).forest;
        let mut labelings = Vec::new();
        let mut exports = Vec::new();
        for config in configs {
            let mut auto = OnDemandAutomaton::with_config(Arc::clone(&normal), config);
            labelings.push(auto.label_forest(&forest).expect("workload labels"));
            exports.push(exported(&auto));
        }
        let name = normal.name();
        for (config, bytes) in configs.iter().zip(&exports) {
            assert_eq!(bytes, &exports[0], "{name}: export under {config:?}");
        }
        for config in configs {
            let imported = persist::read_tables_from(&exports[0][..], Arc::clone(&normal), config)
                .expect("import succeeds");
            assert_eq!(imported.config(), config, "{name}");
            let mut warm = OnDemandAutomaton::from_snapshot(&imported);
            let relabeled = warm.label_forest(&forest).expect("warm relabel");
            assert_eq!(warm.counters().memo_misses, 0, "{name}: {config:?}");
            assert_eq!(relabeled, labelings[0], "{name}: {config:?}");
        }
    }
}

/// The shipping path and the file path must produce and consume the
/// same bytes: a snapshot streamed through `write_tables_to`, framed
/// over a real socket, and read back with `read_tables_from` is
/// bit-identical to a file export of the same snapshot — table
/// shipping is a transport, not a re-encoding.
#[test]
fn socket_shipped_bytes_match_a_file_export_bit_identically() {
    use std::io::{Read, Write};

    let (auto, forest) = warmed(3);
    let snapshot = Arc::new(auto.snapshot());

    // File path.
    let dir = std::env::temp_dir().join(format!("odburg-ship-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("shipped.odbt");
    persist::save_tables(&snapshot, &path).expect("save");
    let file_bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_dir_all(&dir).ok();

    // Shipping path: stream the same snapshot over a socketpair with
    // length-prefixed framing, exactly as the cluster transport does.
    let (mut tx, mut rx) = std::os::unix::net::UnixStream::pair().expect("socketpair");
    let mut wire = Vec::new();
    persist::write_tables_to(&snapshot, &mut wire).expect("stream export");
    let sender = std::thread::spawn(move || {
        tx.write_all(&(wire.len() as u64).to_le_bytes()).unwrap();
        tx.write_all(&wire).unwrap();
    });
    let mut len = [0u8; 8];
    rx.read_exact(&mut len).expect("length prefix");
    let mut shipped = vec![0u8; u64::from_le_bytes(len) as usize];
    rx.read_exact(&mut shipped).expect("payload");
    sender.join().expect("sender thread");

    assert_eq!(shipped, file_bytes, "shipped bytes differ from file export");

    // And the shipped bytes import to an equivalent snapshot.
    let imported =
        persist::read_tables_from(&shipped[..], Arc::clone(auto.grammar()), auto.config())
            .expect("import shipped bytes");
    assert_eq!(imported.stats(), snapshot.stats());
    let mut from_wire = OnDemandAutomaton::from_snapshot(&imported);
    let relabeled = from_wire.label_forest(&forest).expect("warm relabel");
    let mut from_file = OnDemandAutomaton::from_snapshot(&snapshot);
    let original = from_file.label_forest(&forest).expect("original relabel");
    for (id, _) in forest.iter() {
        assert_eq!(relabeled.state_of(id), original.state_of(id));
    }
}

/// FNV-1a, as the table-file header uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The persisted format lists the tables' contents, not the order they
/// were built in: labeling the MiniC suite on x86ish must export the
/// same bytes whichever way the tables grew. The golden length and
/// checksum were taken from the format-v4 export of this exact sequence;
/// the direct automaton, the shared automaton (which publishes after
/// every grow) and an import → re-export round trip must all reproduce
/// them.
#[test]
fn minic_export_matches_the_golden_bytes() {
    let normal = Arc::new(odburg::targets::x86ish().normalize());
    let forests: Vec<Forest> = odburg::frontend::programs::all()
        .iter()
        .map(|p| p.compile().expect("MiniC compiles"))
        .collect();
    let mut direct = OnDemandAutomaton::new(Arc::clone(&normal));
    let shared = SharedOnDemand::new(OnDemandAutomaton::new(Arc::clone(&normal)));
    for forest in &forests {
        direct.label_forest(forest).expect("labels");
        shared.label_forest(forest).expect("labels");
    }
    let bytes = exported(&direct);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (30_914, 0xaa81_ef86_5853_761f)
    );
    let mut from_shared = Vec::new();
    persist::write_tables_to(&shared.snapshot(), &mut from_shared).expect("export");
    assert_eq!(from_shared, bytes, "shared export differs");
    let imported = persist::read_tables_from(&bytes[..], Arc::clone(&normal), direct.config())
        .expect("import");
    let mut again = Vec::new();
    persist::write_tables_to(&imported, &mut again).expect("export");
    assert_eq!(again, bytes, "round trip differs");
}
