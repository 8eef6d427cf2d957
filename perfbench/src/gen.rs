//! Seeded generator of large annotated C units for the `compile_heavy`
//! workload.
//!
//! A unit is `blocks` repetitions of one pattern — a `pure` function with
//! a loop over a `pure` pointer, a SCoP nest in a plain function calling
//! it, and a user-written `omp parallel for` loop — plus `#define`s, a
//! local `#include` resolved from an in-memory header, system includes,
//! and a `main` that calls every block. Compiling it is expensive;
//! running it is not, so the chain's layers carry the time.
//!
//! The blocks' loops run to a trip-count parameter, and `main` passes a
//! trip count of 1. The chain still schedules and parallelizes them (the
//! bound is a SCoP parameter), but at run time no parallel region
//! launches. With constant trip counts of 4, the run was dominated by
//! hundreds of region wake-ups whose latency doubled with the host's
//! load.
//!
//! Every fourth block writes its parallel loop through an index array (a
//! permutation, so it is race-free at run time), which the static race
//! analysis can only judge `Unknown`; the other blocks' loops are
//! provably `Independent`.

use cprep::IncludeMap;
use std::fmt::Write as _;

/// Name of the local header every unit includes.
pub const HEADER_NAME: &str = "gen_defs.h";

/// Rows of every generated array (and trip count of the parallel loops).
const ROWS: usize = 4;
/// Columns of every generated array.
const COLS: usize = 6;

/// Blocks whose index modulo this is zero use the indirect (`Unknown`)
/// parallel loop.
const INDIRECT_EVERY: usize = 4;

/// SplitMix64: small, seedable and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One generated translation unit and the header it includes.
#[derive(Debug, Clone)]
pub struct GenUnit {
    pub source: String,
    pub includes: IncludeMap,
}

/// Generate a unit of `blocks` blocks from `seed`. The same arguments
/// always give the same bytes.
pub fn generate(seed: u64, blocks: usize) -> GenUnit {
    let mut rng = Rng::new(seed);
    let mut src = String::new();
    src.push_str("#include <stdio.h>\n#include <stdlib.h>\n");
    let _ = writeln!(src, "#include \"{HEADER_NAME}\"\n");
    src.push_str("float **X, **Y;\nfloat *Z;\nint *P;\n\n");

    for i in 0..blocks {
        let k = rng.range(1, 9);
        let bias = rng.range(0, 99);
        let col = rng.range(0, COLS as u64 - 1);
        let _ = write!(
            src,
            "#define K{i} {k}\n\
             pure float kern{i}(pure float* v, int n) {{\n\
             \x20   float acc = 0.0f;\n\
             \x20   for (int k = 0; k < n; k++)\n\
             \x20       acc += v[k] * K{i};\n\
             \x20   return acc + {bias}.0f * 0.01f;\n\
             }}\n\
             \n\
             void blk{i}(int nr) {{\n\
             \x20   for (int a = 0; a < nr; a++)\n\
             \x20       for (int c = 0; c < COLS; c++)\n\
             \x20           Y[a][c] = kern{i}((pure float*)X[a], COLS) + GEN_SCALE((float)c);\n\
             #pragma omp parallel for\n\
             \x20   for (int j = 0; j < nr; j++)\n"
        );
        let target = if i % INDIRECT_EVERY == 0 {
            "Z[P[j]]"
        } else {
            "Z[j]"
        };
        let _ = write!(
            src,
            "\x20       {target} = {target} + Y[j][{col}] * 0.25f;\n}}\n\n"
        );
    }

    // `mul` is odd and ROWS a power of two, so `P` is a permutation.
    let mul = 2 * rng.range(0, 3) + 1;
    let add = rng.range(0, ROWS as u64 - 1);
    let step = rng.range(1, 6);
    src.push_str(
        "int main() {\n\
         \x20   X = (float**) malloc(ROWS * sizeof(float*));\n\
         \x20   Y = (float**) malloc(ROWS * sizeof(float*));\n\
         \x20   Z = (float*) malloc(ROWS * sizeof(float));\n\
         \x20   P = (int*) malloc(ROWS * sizeof(int));\n\
         \x20   for (int a = 0; a < ROWS; a++) {\n\
         \x20       X[a] = (float*) malloc(COLS * sizeof(float));\n\
         \x20       Y[a] = (float*) malloc(COLS * sizeof(float));\n\
         \x20       Z[a] = 0.0f;\n",
    );
    let _ = write!(
        src,
        "\x20       P[a] = (a * {mul} + {add}) % ROWS;\n\
         \x20       for (int c = 0; c < COLS; c++) {{\n\
         \x20           X[a][c] = (float)((a * {step} + c) % 7) * 0.125f;\n\
         \x20           Y[a][c] = 0.0f;\n\
         \x20       }}\n\
         \x20   }}\n"
    );
    for i in 0..blocks {
        let _ = writeln!(src, "    blk{i}(1);");
    }
    src.push_str(
        "    float total = 0.0f;\n\
         \x20   for (int j = 0; j < ROWS; j++)\n\
         \x20       total += Z[j];\n\
         \x20   printf(\"gen=%.3f\\n\", total);\n\
         \x20   return 0;\n\
         }\n",
    );

    let mut includes = IncludeMap::new();
    includes.insert(
        HEADER_NAME,
        format!(
            "#ifndef GEN_DEFS_H\n\
             #define GEN_DEFS_H\n\
             #define ROWS {ROWS}\n\
             #define COLS {COLS}\n\
             #define GEN_SCALE(x) ((x) * 0.5f)\n\
             #endif\n"
        ),
    );
    GenUnit {
        source: src,
        includes,
    }
}
