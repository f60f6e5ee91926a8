//! Figure 7: a worked INZ example — an 8-byte payload of two small words
//! sheds 5 of its 8 bytes.

use anton_bench::outln;
use anton_compress::inz;
use serde::Serialize;

#[derive(Serialize)]
struct Demo {
    words: Vec<i32>,
    encoded_payload_bytes: usize,
    wire_bytes_with_descriptor: usize,
    bytes_saved: usize,
}

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::Json);
    // Two signed words with ~11 significant bits each, as in the figure.
    let words = [0x321i32, -0x456];
    let unsigned: Vec<u32> = words.iter().map(|&w| w as u32).collect();
    let enc = inz::encode(&unsigned);
    let demo = Demo {
        words: words.to_vec(),
        encoded_payload_bytes: enc.payload_len(),
        wire_bytes_with_descriptor: enc.wire_len(),
        bytes_saved: 8 - enc.payload_len(),
    };
    if args.emit_json(&demo) {
        return;
    }
    outln!("FIGURE 7. INZ encoding example");
    outln!(
        "  input words:              {:#010x} {:#010x} (8 bytes raw)",
        words[0],
        words[1]
    );
    for (i, &w) in unsigned.iter().enumerate() {
        outln!(
            "  sign-folded word {i}:       {:#010x}",
            inz::invert_word(w)
        );
    }
    outln!(
        "  interleaved valid bytes:  {} (descriptor carries msw={})",
        enc.payload_len(),
        enc.msw
    );
    outln!(
        "  decoded:                  {:?}",
        inz::decode(&enc)
            .iter()
            .map(|&w| w as i32)
            .collect::<Vec<_>>()
    );
    outln!();
    anton_bench::compare(
        "leading zero bytes eliminated",
        "5 of 8",
        &format!("{} of 8", demo.bytes_saved),
    );
}
