//! The seeded `compile_heavy` generator: determinism, and the properties
//! the workload was chosen for.

use cinterp::RaceVerdict;
use perfbench::gen::{generate, HEADER_NAME};
use purec::ChainOptions;
use purec_core::PcCcOptions;

const SEEDS: [u64; 4] = [0, 1, 42, 0xDEAD_BEEF];

fn chain_opts(unit: &perfbench::gen::GenUnit) -> ChainOptions {
    ChainOptions {
        pc_cc: PcCcOptions {
            includes: unit.includes.clone(),
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn same_seed_gives_byte_identical_unit() {
    for seed in SEEDS {
        let a = generate(seed, 12);
        let b = generate(seed, 12);
        assert_eq!(a.source, b.source);
        assert_eq!(a.includes.get(HEADER_NAME), b.includes.get(HEADER_NAME));
    }
    assert_ne!(generate(1, 12).source, generate(2, 12).source);
}

#[test]
fn every_block_gets_a_transformed_region() {
    for (seed, blocks) in SEEDS.into_iter().zip([5, 12, 40, 120]) {
        let unit = generate(seed, blocks);
        let out = purec::compile(&unit.source, chain_opts(&unit))
            .unwrap_or_else(|d| panic!("seed {seed}: {}", d.render_all(&unit.source)));
        assert!(
            out.regions_transformed >= blocks,
            "seed {seed}: {} transformed regions for {blocks} blocks",
            out.regions_transformed
        );
    }
}

#[test]
fn every_unit_has_independent_and_unknown_loops() {
    for seed in SEEDS {
        let unit = generate(seed, 9);
        let out = purec::compile(&unit.source, chain_opts(&unit)).expect("chain");
        let count = |v: RaceVerdict| out.verdicts.values().filter(|x| **x == v).count();
        assert!(count(RaceVerdict::Independent) > 0, "seed {seed}");
        assert!(count(RaceVerdict::Unknown) > 0, "seed {seed}");
        assert_eq!(count(RaceVerdict::Racy), 0, "seed {seed}");
    }
}

#[test]
fn every_unit_exercises_macros_and_includes() {
    for seed in SEEDS {
        let unit = generate(seed, 6);
        assert!(unit.source.contains(&format!("#include \"{HEADER_NAME}\"")));
        assert!(unit.source.contains("#include <stdio.h>"));
        assert!(unit.source.contains("#define K0 "));
        let header = unit.includes.get(HEADER_NAME).expect("header");
        assert!(header.contains("#define GEN_SCALE(x)"));

        let pp = cprep::preprocess(&unit.source, &unit.includes);
        assert!(!pp.diags.has_errors());
        assert_eq!(pp.system_includes, ["stdio.h", "stdlib.h"]);
        for name in ["ROWS", "COLS", "GEN_SCALE", "K0"] {
            assert!(
                !pp.text.contains(name),
                "seed {seed}: {name} left unexpanded"
            );
        }
        // Without the header, the unit does not compile.
        assert!(purec::compile(&unit.source, ChainOptions::default()).is_err());
    }
}
