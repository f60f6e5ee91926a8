//! Ablation: how much each INZ design choice contributes, measured on
//! real MD force and position-delta payloads.
//!
//! The paper's encoder (§IV-A) composes two transforms before dropping
//! leading zero bytes: *sign folding* (move the sign to the LSB and
//! conditionally invert, so small negatives get leading zeros too) and
//! *bitwise interleaving* (so words of similar magnitude share their
//! leading zeros instead of wasting them per-word at byte granularity).
//! This binary compares four encoders on the same payload stream:
//!
//! 1. raw (no compression)
//! 2. leading-zero dropping only
//! 3. sign folding + leading-zero dropping (no interleave)
//! 4. full INZ (fold + interleave) — the hardware scheme

use anton_bench::outln;
use anton_compress::inz;
use anton_md::integrate::Simulation;
use anton_md::units::quantize_force;
use serde::Serialize;

/// Bytes to ship `words` when each word independently drops its leading
/// zero bytes (per-word length nibbles assumed free, favoring the
/// ablation baseline).
fn per_word_lz_bytes(words: &[u32]) -> usize {
    words
        .iter()
        .map(|&w| 4 - w.leading_zeros() as usize / 8)
        .sum()
}

#[derive(Serialize)]
struct Row {
    encoder: &'static str,
    mean_payload_bytes: f64,
    reduction_pct: f64,
}

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::Json);
    // Real force payloads from an equilibrated water box.
    let mut sim = Simulation::water(2000, 31);
    sim.run(8);
    let payloads: Vec<[u32; 3]> = sim
        .forces
        .f
        .iter()
        .map(|f| {
            let q = quantize_force(*f);
            [q[0] as u32, q[1] as u32, q[2] as u32]
        })
        .collect();

    let n = payloads.len() as f64;
    let raw = 12.0;
    let lz_only: f64 = payloads
        .iter()
        .map(|p| per_word_lz_bytes(p) as f64)
        .sum::<f64>()
        / n;
    let fold_only: f64 = payloads
        .iter()
        .map(|p| {
            let folded: Vec<u32> = p.iter().map(|&w| inz::invert_word(w)).collect();
            per_word_lz_bytes(&folded) as f64
        })
        .sum::<f64>()
        / n;
    let full: f64 = payloads
        .iter()
        .map(|p| inz::encode(p).payload_len() as f64)
        .sum::<f64>()
        / n;

    let rows = [
        Row {
            encoder: "raw",
            mean_payload_bytes: raw,
            reduction_pct: 0.0,
        },
        Row {
            encoder: "leading-zero drop only",
            mean_payload_bytes: lz_only,
            reduction_pct: (1.0 - lz_only / raw) * 100.0,
        },
        Row {
            encoder: "sign fold + lz drop",
            mean_payload_bytes: fold_only,
            reduction_pct: (1.0 - fold_only / raw) * 100.0,
        },
        Row {
            encoder: "full INZ (fold + interleave)",
            mean_payload_bytes: full,
            reduction_pct: (1.0 - full / raw) * 100.0,
        },
    ];
    if args.emit_json(
        &rows
            .iter()
            .map(|r| (r.encoder, r.mean_payload_bytes))
            .collect::<Vec<_>>(),
    ) {
        return;
    }
    outln!(
        "ABLATION: INZ design choices on {0} real force payloads",
        payloads.len()
    );
    outln!("{:<32} {:>14} {:>12}", "encoder", "mean bytes", "reduction");
    for r in rows {
        outln!(
            "{:<32} {:>14.2} {:>11.1}%",
            r.encoder,
            r.mean_payload_bytes,
            r.reduction_pct
        );
    }
    outln!("\n(sign folding rescues negative values; interleaving pools the leading");
    outln!(" zeros of same-magnitude words that per-word byte-dropping strands)");
}
