//! Reference outputs committed with the benchmark. The oracle compares them
//! bit for bit: the trajectory thresholds of Algorithms 2 and 3 and the
//! static baseline (seed-independent), and the FAR rates at
//! [`DEFAULT_SEED`](crate::DEFAULT_SEED) of the pipeline's table and of
//! every zoo plant. Regenerate with `perfbench --emit-golden` only when a
//! change is meant to alter them, and say so.

pub const ALG2: &[Option<u64>] = &[
    Some(0x3fb2b1a6bfc4ca2c),
    Some(0x3ebf1c6bc9398000),
    Some(0x3ebf1c6bc9398000),
    Some(0x3ebf1c6bc9398000),
    Some(0x3ebf1c6bc9398000),
    Some(0x3ebf1c6bc9398000),
    Some(0x3ebf1c6bc9398000),
    Some(0x3ebf1c6bc9398000),
    Some(0x3eb4f201f3220000),
    Some(0x3eb4f201f3220000),
];
pub const ALG3: &[Option<u64>] = &[
    Some(0x3fb2b1748a8f6afe),
    Some(0x3eb0c6f7a0b5ed8d),
    Some(0x3eb0c6f7a0b5ed8d),
    Some(0x3eb0c6f7a0b5ed8d),
    Some(0x3eb0c6f7a0b5ed8d),
    Some(0x3eb0c6f7a0b5ed8d),
    Some(0x3eb0c6f7a0b5ed8d),
    Some(0x3eb0c6f7a0b5ed8d),
    Some(0x3eb0c6f7a0b5ed8d),
    Some(0x3eb0c6f7a0b5ed8d),
];
pub const STATIC: u64 = 0x3f7b75dd4d33f94d;
pub const PIPELINE_FAR: &[u64] = &[
    0x3ff0000000000000,
    0x3ff0000000000000,
    0x3feccccccccccccd,
    0x3fed374bc6a7ef9e,
    0x3fe08b4395810625,
];
/// Per zoo plant, in `all_benchmarks()` order: kept trials and rate bits.
pub const ZOO: &[(usize, &[u64])] = &[
    // trajectory-tracking
    (
        10000,
        &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000],
    ),
    // vehicle-stability-controller
    (
        4089,
        &[0x3feae1c2c53647bf, 0x3fc7422cf3aa9aa4, 0x3fe637b860aa4a81],
    ),
    // dc-motor
    (
        10000,
        &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000],
    ),
    // inverted-pendulum
    (
        10000,
        &[0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000],
    ),
    // quadruple-tank
    (
        10000,
        &[0x3f2a36e2eb1c432d, 0x0000000000000000, 0x0000000000000000],
    ),
];

/// Prints this file with freshly computed values.
pub fn emit() {
    let fmt_partial = |p: &[Option<f64>]| {
        let items: Vec<String> = crate::pipeline::bits(p)
            .iter()
            .map(|b| b.map_or("None".to_string(), |b| format!("Some({b:#018x})")))
            .collect();
        format!("&[{}]", items.join(", "))
    };
    let fmt_bits = |v: &[u64]| {
        let items: Vec<String> = v.iter().map(|b| format!("{b:#018x}")).collect();
        format!("&[{}]", items.join(", "))
    };
    let source = include_str!("golden.rs");
    let header_end = source.find("pub const ALG2").expect("header present");
    let emit_start = source.find("/// Prints this file").expect("emit present");
    let (out, rates) = crate::pipeline::golden_values();
    print!("{}", &source[..header_end]);
    println!(
        "pub const ALG2: &[Option<u64>] = {};",
        fmt_partial(&out.alg2.partial)
    );
    println!(
        "pub const ALG3: &[Option<u64>] = {};",
        fmt_partial(&out.alg3.partial)
    );
    println!(
        "pub const STATIC: u64 = {:#018x};",
        out.static_spec.value_at(0).to_bits()
    );
    println!("pub const PIPELINE_FAR: &[u64] = {};", fmt_bits(&rates));
    println!("/// Per zoo plant, in `all_benchmarks()` order: kept trials and rate bits.");
    println!("pub const ZOO: &[(usize, &[u64])] = &[");
    for (name, kept, bits) in crate::zoo::golden_values() {
        println!("    // {name}");
        println!("    ({kept}, {}),", fmt_bits(&bits));
    }
    println!("];");
    println!();
    print!("{}", &source[emit_start..]);
}
