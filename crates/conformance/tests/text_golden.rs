//! Byte-level pin on the ezpim text the frontends print. Each section
//! folds the text it observes into an FNV-1a digest:
//!
//! - `dpapi`: `Lowered::ezpim_text` and `Lowered::phase2_text` of
//!   `random_pipeline(seed)`, seeds 0..200, over a one-member and a
//!   three-member ensemble;
//! - `cases`: `Case::to_text` of `generate(seed)`, seeds 0..200;
//! - `pipeline cases`: `Case::to_text` of `generate_pipeline_case(seed)`,
//!   seeds 0..50.
//!
//! A digest mismatch means the printed text changed: indentation, header
//! spelling, separators or statement order.

use conformance::{generate, generate_pipeline_case};
use dpapi::random_pipeline;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so adjacent strings cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const LAYOUTS: [&[(u16, u16)]; 2] = [&[(0, 0)], &[(0, 0), (1, 0), (3, 1)]];

fn dpapi_digest() -> u64 {
    let mut h = Fnv::new();
    for seed in 0..200u64 {
        let lowered = random_pipeline(seed).pipeline.lower().expect("generated pipelines lower");
        for members in LAYOUTS {
            h.str(&lowered.ezpim_text(members));
            h.str(lowered.phase2_text(members).as_deref().unwrap_or("<no phase 2>"));
        }
    }
    h.0
}

fn case_digest() -> u64 {
    let mut h = Fnv::new();
    for seed in 0..200u64 {
        h.str(&generate(seed).to_text());
    }
    h.0
}

fn pipeline_case_digest() -> u64 {
    let mut h = Fnv::new();
    for seed in 0..50u64 {
        h.str(&generate_pipeline_case(seed).to_text());
    }
    h.0
}

#[test]
fn printed_ezpim_text_is_pinned() {
    let got = [dpapi_digest(), case_digest(), pipeline_case_digest()];
    let want: [u64; 3] = [0x26b6_f86d_9426_8a22, 0xc381_730e_4a86_8f89, 0x2f01_ac3f_9cb4_6eef];
    assert_eq!(got, want, "dpapi, case and pipeline-case text digests");
}
