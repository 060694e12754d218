//! Wire-codec throughput: GiB/s per codec per data class, the fast
//! word-at-a-time RLE against the scalar baseline it replaced, and the
//! cost of the adaptive probe on incompressible payloads, and the
//! super-tile wire checksum against byte-serial FNV-1a.
//!
//! Four payload classes cover the archive spectrum:
//!
//! * **constant** — one repeated byte (run-heavy; masks, fill regions)
//! * **classified** — blocky label runs (segmentation rasters)
//! * **ramp_i32** — smoothly increasing 4-byte cells (coordinates,
//!   timestamps; runs appear only after the byte shuffle)
//! * **random** — seeded noise (sensor data past its entropy floor;
//!   incompressible, must stay on the raw pass-through)
//!
//! Pass `--json <path>` to write machine-readable results.

use std::time::Instant;

use bytes::Bytes;
use heaven_array::codec::{self, baseline};
use heaven_array::{decode_wire, encode_wire, Codec, CodecPolicy};
use heaven_core::checksum64;

/// Payload size per class: big enough for stable GiB/s, small enough
/// for a CI smoke run.
const PAYLOAD: usize = 8 << 20;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

struct Class {
    name: &'static str,
    cell_size: usize,
    data: Bytes,
}

fn classes() -> Vec<Class> {
    let constant = vec![42u8; PAYLOAD];
    let classified = {
        let mut out = Vec::with_capacity(PAYLOAD);
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        while out.len() < PAYLOAD {
            let w = xorshift(&mut s);
            let run = 1 + (w % 96) as usize;
            let label = (w >> 32) as u8;
            out.extend(std::iter::repeat_n(label, run.min(PAYLOAD - out.len())));
        }
        out
    };
    let ramp_i32 = {
        let mut out = Vec::with_capacity(PAYLOAD);
        for i in 0..(PAYLOAD / 4) as i32 {
            out.extend_from_slice(&(i / 7).to_le_bytes());
        }
        out
    };
    let random = {
        let mut out = Vec::with_capacity(PAYLOAD);
        let mut s = 0xdead_beef_cafe_f00du64;
        while out.len() < PAYLOAD {
            out.extend_from_slice(&xorshift(&mut s).to_le_bytes());
        }
        out.truncate(PAYLOAD);
        out
    };
    vec![
        Class {
            name: "constant",
            cell_size: 1,
            data: Bytes::from(constant),
        },
        Class {
            name: "classified",
            cell_size: 1,
            data: Bytes::from(classified),
        },
        Class {
            name: "ramp_i32",
            cell_size: 4,
            data: Bytes::from(ramp_i32),
        },
        Class {
            name: "random",
            cell_size: 8,
            data: Bytes::from(random),
        },
    ]
}

/// Average wall nanoseconds per call (one warm-up, then a timed loop).
fn time_ns<F: FnMut()>(mut f: F) -> u64 {
    f();
    let iters: u32 = 10;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed().as_nanos() / iters as u128) as u64
}

fn gib_s(bytes: usize, ns: u64) -> f64 {
    if ns == 0 {
        return f64::INFINITY;
    }
    bytes as f64 * 1e9 / ns as f64 / (1u64 << 30) as f64
}

struct CodecRow {
    codec: Codec,
    wire_len: usize,
    encode_ns: u64,
    decode_ns: u64,
}

fn bench_codec(data: &Bytes, cell_size: usize, forced: Codec) -> CodecRow {
    let policy = CodecPolicy {
        forced: Some(forced),
        ..CodecPolicy::default()
    };
    let (wire, used) = encode_wire(data, cell_size, &policy);
    let encode_ns = time_ns(|| {
        std::hint::black_box(encode_wire(data, cell_size, &policy));
    });
    let expected = data.len() as u64;
    let decode_ns = time_ns(|| {
        std::hint::black_box(decode_wire(&wire, expected).unwrap());
    });
    CodecRow {
        codec: used,
        wire_len: wire.len(),
        encode_ns,
        decode_ns,
    }
}

/// Textbook scalar RLE decode: one output byte per loop iteration, no
/// slice fills. This is the reference the "RLE decode speedup" number is
/// against; the *seed* decoder (`codec::baseline`, timed separately
/// below) already fills runs slice-at-a-time and sits close to the
/// machine's memset bandwidth on run-heavy data.
fn scalar_rle_decompress(input: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut i = 0;
    while i < input.len() {
        let tag = input[i];
        i += 1;
        if tag < 128 {
            let len = tag as usize + 1;
            if i + len > input.len() {
                return None;
            }
            for k in 0..len {
                out.push(input[i + k]);
            }
            i += len;
        } else {
            let b = *input.get(i)?;
            i += 1;
            for _ in 0..(tag as usize - 128) + 2 {
                out.push(b);
            }
        }
    }
    Some(out)
}

/// Byte-serial 64-bit FNV-1a, the super-tile checksum `checksum64`
/// replaced: one dependent multiply per byte. Kept here only as the
/// reference for `checksum_speedup_vs_fnv`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Checksummed unit: one whole super-tile of the size the benchmarks
/// and experiments archive.
const CHECKSUM_PAYLOAD: usize = 32 << 10;

/// Wall nanoseconds per call of `hash` over one `CHECKSUM_PAYLOAD`,
/// averaged over enough calls to dwarf the clock's resolution.
fn checksum_ns(data: &[u8], hash: fn(&[u8]) -> u64) -> f64 {
    let iters = 4096u32;
    hash(std::hint::black_box(data));
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(hash(std::hint::black_box(data)));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

struct ClassResult {
    name: &'static str,
    cell_size: usize,
    baseline_encode_ns: u64,
    baseline_decode_ns: u64,
    scalar_decode_ns: u64,
    fast_encode_ns: u64,
    fast_decode_ns: u64,
    rows: Vec<CodecRow>,
    adaptive: CodecRow,
}

fn bench_class(c: &Class) -> ClassResult {
    // Seed codec and scalar reference vs the word-at-a-time RLE, over
    // bare streams (no frame) so the comparison is codec against codec.
    let legacy = baseline::rle_compress(&c.data);
    let baseline_encode_ns = time_ns(|| {
        std::hint::black_box(baseline::rle_compress(&c.data));
    });
    let baseline_decode_ns = time_ns(|| {
        std::hint::black_box(baseline::rle_decompress(&legacy).unwrap());
    });
    let scalar_decode_ns = time_ns(|| {
        std::hint::black_box(scalar_rle_decompress(&legacy).unwrap());
    });
    let fast_encode_ns = time_ns(|| {
        std::hint::black_box(codec::rle_compress(&c.data));
    });
    let fast_decode_ns = time_ns(|| {
        std::hint::black_box(codec::rle_decompress(&legacy).unwrap());
    });

    let rows = vec![
        bench_codec(&c.data, c.cell_size, Codec::Raw),
        bench_codec(&c.data, c.cell_size, Codec::Rle),
        bench_codec(&c.data, c.cell_size, Codec::ShuffleRle),
    ];
    // Adaptive: probe + selected codec, the production encode path.
    let adaptive = {
        let policy = CodecPolicy::default();
        let (wire, used) = encode_wire(&c.data, c.cell_size, &policy);
        let encode_ns = time_ns(|| {
            std::hint::black_box(encode_wire(&c.data, c.cell_size, &policy));
        });
        let expected = c.data.len() as u64;
        let decode_ns = time_ns(|| {
            std::hint::black_box(decode_wire(&wire, expected).unwrap());
        });
        CodecRow {
            codec: used,
            wire_len: wire.len(),
            encode_ns,
            decode_ns,
        }
    };
    ClassResult {
        name: c.name,
        cell_size: c.cell_size,
        baseline_encode_ns,
        baseline_decode_ns,
        scalar_decode_ns,
        fast_encode_ns,
        fast_decode_ns,
        rows,
        adaptive,
    }
}

fn main() {
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = args.next();
        }
    }

    // Memcpy reference: what a pure pass-through with one copy would cost.
    let noise = classes().pop().unwrap().data;
    let memcpy_ns = time_ns(|| {
        std::hint::black_box(noise.to_vec());
    });

    let results: Vec<ClassResult> = classes().iter().map(bench_class).collect();

    let checksummed = &noise[..CHECKSUM_PAYLOAD];
    let checksum64_ns = checksum_ns(checksummed, checksum64);
    let fnv_ns = checksum_ns(checksummed, fnv1a64);
    let checksum_speedup = fnv_ns / checksum64_ns.max(1e-3);

    for r in &results {
        println!(
            "codec/{:<10} seed rle {:>6.2}/{:>6.2} GiB/s  scalar dec {:>6.2} GiB/s  \
             fast rle {:>6.2}/{:>6.2} GiB/s (dec {:.1}x scalar, {:.2}x seed)",
            r.name,
            gib_s(PAYLOAD, r.baseline_encode_ns),
            gib_s(PAYLOAD, r.baseline_decode_ns),
            gib_s(PAYLOAD, r.scalar_decode_ns),
            gib_s(PAYLOAD, r.fast_encode_ns),
            gib_s(PAYLOAD, r.fast_decode_ns),
            r.scalar_decode_ns as f64 / r.fast_decode_ns.max(1) as f64,
            r.baseline_decode_ns as f64 / r.fast_decode_ns.max(1) as f64,
        );
        for row in &r.rows {
            println!(
                "codec/{:<10}   forced {:<11} ratio {:>5.3}  enc {:>7.2} GiB/s  dec {:>7.2} GiB/s",
                r.name,
                row.codec.name(),
                row.wire_len as f64 / PAYLOAD as f64,
                gib_s(PAYLOAD, row.encode_ns),
                gib_s(PAYLOAD, row.decode_ns),
            );
        }
        println!(
            "codec/{:<10}   adaptive -> {:<11} ratio {:>5.3}  enc {:>7.2} GiB/s  dec {:>7.2} GiB/s",
            r.name,
            r.adaptive.codec.name(),
            r.adaptive.wire_len as f64 / PAYLOAD as f64,
            gib_s(PAYLOAD, r.adaptive.encode_ns),
            gib_s(PAYLOAD, r.adaptive.decode_ns),
        );
    }
    let random = results.iter().find(|r| r.name == "random").unwrap();
    let overhead_pct = random.adaptive.encode_ns as f64 / memcpy_ns.max(1) as f64 * 100.0;
    println!(
        "codec/adaptive probe on random: {} ns vs {} ns memcpy ({:.3}% of one copy)",
        random.adaptive.encode_ns, memcpy_ns, overhead_pct
    );
    println!(
        "checksum/32KiB checksum64 {checksum64_ns:.0} ns ({:.2} GB/s) vs FNV-1a {fnv_ns:.0} ns \
         ({:.2} GB/s): {checksum_speedup:.1}x",
        CHECKSUM_PAYLOAD as f64 / checksum64_ns,
        CHECKSUM_PAYLOAD as f64 / fnv_ns,
    );

    if let Some(path) = json_path {
        let mut out = String::from("{\n  \"bench\": \"codec\",\n");
        out.push_str(&format!("  \"payload_bytes\": {PAYLOAD},\n"));
        out.push_str(
            "  \"baseline\": \"seed codec kept verbatim as codec::baseline; \
             rle_decode_speedup is vs a byte-at-a-time scalar decode, \
             seed_rle_decode_speedup vs the seed (whose run fills were \
             already slice-level, i.e. near memset bandwidth)\",\n",
        );
        out.push_str(&format!(
            "  \"memcpy_gib_s\": {:.3},\n",
            gib_s(PAYLOAD, memcpy_ns)
        ));
        out.push_str(&format!(
            "  \"adaptive_raw_overhead_vs_memcpy_pct\": {overhead_pct:.4},\n"
        ));
        out.push_str(&format!(
            "  \"checksum\": {{\"payload_bytes\": {CHECKSUM_PAYLOAD}, \
             \"checksum64_ns\": {checksum64_ns:.1}, \"fnv1a_ns\": {fnv_ns:.1}, \
             \"checksum_speedup_vs_fnv\": {checksum_speedup:.2}}},\n"
        ));
        out.push_str("  \"classes\": [\n");
        for (i, r) in results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"class\": \"{}\", \"cell_size\": {}, \
                 \"seed_rle_encode_gib_s\": {:.3}, \"seed_rle_decode_gib_s\": {:.3}, \
                 \"scalar_rle_decode_gib_s\": {:.3}, \
                 \"rle_encode_gib_s\": {:.3}, \"rle_decode_gib_s\": {:.3}, \
                 \"rle_encode_speedup\": {:.2}, \"rle_decode_speedup\": {:.2}, \
                 \"seed_rle_decode_speedup\": {:.2}, \"codecs\": [",
                r.name,
                r.cell_size,
                gib_s(PAYLOAD, r.baseline_encode_ns),
                gib_s(PAYLOAD, r.baseline_decode_ns),
                gib_s(PAYLOAD, r.scalar_decode_ns),
                gib_s(PAYLOAD, r.fast_encode_ns),
                gib_s(PAYLOAD, r.fast_decode_ns),
                r.baseline_encode_ns as f64 / r.fast_encode_ns.max(1) as f64,
                r.scalar_decode_ns as f64 / r.fast_decode_ns.max(1) as f64,
                r.baseline_decode_ns as f64 / r.fast_decode_ns.max(1) as f64,
            ));
            for (j, row) in r.rows.iter().chain([&r.adaptive]).enumerate() {
                out.push_str(&format!(
                    "{}{{\"mode\": \"{}\", \"codec\": \"{}\", \"ratio\": {:.4}, \
                     \"encode_gib_s\": {:.3}, \"decode_gib_s\": {:.3}}}",
                    if j == 0 { "" } else { ", " },
                    if j < 3 { "forced" } else { "adaptive" },
                    row.codec.name(),
                    row.wire_len as f64 / PAYLOAD as f64,
                    gib_s(PAYLOAD, row.encode_ns),
                    gib_s(PAYLOAD, row.decode_ns),
                ));
            }
            out.push_str(&format!(
                "]}}{}\n",
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).unwrap();
        println!("wrote {path}");
    }
}
