//! Golden digests of complete compressor output. Each entry pins one
//! (benchmark, seed, Figure 7 configuration, selection algorithm) to an
//! FNV-1a digest of the compressed text, the DISE productions or
//! dedicated dictionary, and the static statistics. Matching ratios do
//! not prove matching dictionaries; these digests do, so any change to
//! selection that is meant to be a pure speed-up must keep every line.
//!
//! The small subset runs in every build. The full twelve-benchmark
//! matrix is `ignore`d in debug builds only, so a release run covers
//! both:
//!
//! ```text
//! cargo test --release -p dise-acf --test select_golden
//! ```
//!
//! A deliberate change to selection regenerates the table: the failure
//! message lists every computed line in table order.

use dise_acf::compress::{CompressionConfig, Compressor, SelectAlgo};
use dise_workloads::{Benchmark, WorkloadConfig};

/// The six Figure 7 configurations, walk order.
const CONFIGS: [&str; 6] = [
    "dedicated",
    "dedicated_no_single",
    "dise_unparameterized",
    "dise_wide_entries",
    "dise_parameterized",
    "dise_full",
];

const SEEDS: [u64; 3] = [0, 1, 2];

fn config(name: &str) -> CompressionConfig {
    match name {
        "dedicated" => CompressionConfig::dedicated(),
        "dedicated_no_single" => CompressionConfig::dedicated_no_single(),
        "dise_unparameterized" => CompressionConfig::dise_unparameterized(),
        "dise_wide_entries" => CompressionConfig::dise_wide_entries(),
        "dise_parameterized" => CompressionConfig::dise_parameterized(),
        "dise_full" => CompressionConfig::dise_full(),
        _ => unreachable!("unknown config {name}"),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One table line: `bench seed config algo digest`.
fn line(bench: Benchmark, seed: u64, cfg: &str, algo: SelectAlgo) -> String {
    let program = bench.build(&WorkloadConfig {
        seed,
        ..WorkloadConfig::tiny()
    });
    let c = Compressor::new(config(cfg).with_select(algo))
        .compress(&program)
        .expect("compression");
    let digest = fnv1a(
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            c.program.text(), c.productions, c.dictionary, c.stats
        )
        .as_bytes(),
    );
    let algo = match algo {
        SelectAlgo::V1 => "v1",
        SelectAlgo::V2 => "v2",
    };
    format!("{} {seed} {cfg} {algo} {digest:016x}", bench.name())
}

/// Computes every line for `benches` × `seeds` × configs × {v1, v2} and
/// checks each against [`GOLDEN`].
fn check(benches: &[Benchmark], seeds: &[u64]) {
    let mut actual = Vec::new();
    for &bench in benches {
        for &seed in seeds {
            for cfg in CONFIGS {
                for algo in [SelectAlgo::V1, SelectAlgo::V2] {
                    actual.push(line(bench, seed, cfg, algo));
                }
            }
        }
    }
    let golden: Vec<&str> = GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mismatched: Vec<&str> = actual
        .iter()
        .map(String::as_str)
        .filter(|l| !golden.contains(l))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} of {} digests diverged from the golden table:\n{}\n\nall computed lines:\n{}",
        mismatched.len(),
        actual.len(),
        mismatched.join("\n"),
        actual.join("\n")
    );
}

#[test]
fn golden_digests_small_subset() {
    check(&[Benchmark::Mcf], &[0]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes-slow unoptimized; ci.sh runs it under --release"
)]
fn golden_digests_full_matrix() {
    check(&Benchmark::ALL, &SEEDS);
}

/// `bench seed config algo digest`, one line per combination.
const GOLDEN: &str = "
bzip2 0 dedicated v1 c120519c2f7ccc3e
bzip2 0 dedicated v2 5809b6f4f063cf05
bzip2 0 dedicated_no_single v1 29701bc5fd3ca8d3
bzip2 0 dedicated_no_single v2 4d237d38d5518ebf
bzip2 0 dise_unparameterized v1 082b40d6a5a8c79e
bzip2 0 dise_unparameterized v2 5a7dc35a7a3dd443
bzip2 0 dise_wide_entries v1 2fa38a2b4c53d6c5
bzip2 0 dise_wide_entries v2 7798c4d00dc92c85
bzip2 0 dise_parameterized v1 4063a35aa1a2d29c
bzip2 0 dise_parameterized v2 bc59abf9e28dc821
bzip2 0 dise_full v1 400e37769107d79a
bzip2 0 dise_full v2 16fa088b12f7602e
bzip2 1 dedicated v1 5e1ca76485b8f65d
bzip2 1 dedicated v2 219f6c23121bfef4
bzip2 1 dedicated_no_single v1 fb9b7890e402d32e
bzip2 1 dedicated_no_single v2 990c79422a8052e2
bzip2 1 dise_unparameterized v1 4c9159aef7b15dac
bzip2 1 dise_unparameterized v2 b3f588110926eb05
bzip2 1 dise_wide_entries v1 43d94d4db252dcae
bzip2 1 dise_wide_entries v2 a819b67d1ea4176d
bzip2 1 dise_parameterized v1 19be822e7f51e016
bzip2 1 dise_parameterized v2 4630adb62726f71a
bzip2 1 dise_full v1 ed3b15f87ab93925
bzip2 1 dise_full v2 23818d0abf921467
bzip2 2 dedicated v1 aac5780800f14530
bzip2 2 dedicated v2 b7ac2967b5d08fcd
bzip2 2 dedicated_no_single v1 285cd1d4e290f3a9
bzip2 2 dedicated_no_single v2 abbc946de11c5dd7
bzip2 2 dise_unparameterized v1 2642937e87519144
bzip2 2 dise_unparameterized v2 51ca2977167d8986
bzip2 2 dise_wide_entries v1 f1a8cb5e8af5cf2c
bzip2 2 dise_wide_entries v2 c6d3f54d7827121c
bzip2 2 dise_parameterized v1 5f1a05b3ae91a3ae
bzip2 2 dise_parameterized v2 b2c937a09e56c42f
bzip2 2 dise_full v1 9fa497dccb9890ef
bzip2 2 dise_full v2 8e9469cea2b4e062
crafty 0 dedicated v1 2c807a5b2f863f92
crafty 0 dedicated v2 13df584c8d89d0d3
crafty 0 dedicated_no_single v1 22c016bbe1db3ba7
crafty 0 dedicated_no_single v2 ef68b26d75a44295
crafty 0 dise_unparameterized v1 41e96ec3bc6c2a76
crafty 0 dise_unparameterized v2 04355a6ecfa66ff0
crafty 0 dise_wide_entries v1 f3be139c0b22b698
crafty 0 dise_wide_entries v2 4eccd9334510c5c5
crafty 0 dise_parameterized v1 34fab28b8f8d9cfc
crafty 0 dise_parameterized v2 23b0961b5262abed
crafty 0 dise_full v1 607a9c5d4a906cf1
crafty 0 dise_full v2 3cd53535ff1f3aeb
crafty 1 dedicated v1 f5bd17e889821708
crafty 1 dedicated v2 f15cfae76051f208
crafty 1 dedicated_no_single v1 ad63951d5878b859
crafty 1 dedicated_no_single v2 6ee625bdea42a57a
crafty 1 dise_unparameterized v1 7a4f74ba19ae02e6
crafty 1 dise_unparameterized v2 22ddb3d9ed6db87a
crafty 1 dise_wide_entries v1 b2fb9eb4c8bbeeb3
crafty 1 dise_wide_entries v2 05b07ecffc048dd0
crafty 1 dise_parameterized v1 c7be62fd55df450c
crafty 1 dise_parameterized v2 db9506890e3c8408
crafty 1 dise_full v1 14799619f24d7427
crafty 1 dise_full v2 7648413b1a0f63c7
crafty 2 dedicated v1 5e537342dda9f4bc
crafty 2 dedicated v2 140682df6a1127ee
crafty 2 dedicated_no_single v1 358c8070e07c3866
crafty 2 dedicated_no_single v2 9c89dafce8f33b6c
crafty 2 dise_unparameterized v1 a531882c9367937f
crafty 2 dise_unparameterized v2 18245d1ce466d25c
crafty 2 dise_wide_entries v1 751982e9378c8b85
crafty 2 dise_wide_entries v2 e596904a2ccb816f
crafty 2 dise_parameterized v1 7adbfe4f85e991ec
crafty 2 dise_parameterized v2 264f0b090a430a51
crafty 2 dise_full v1 439bf17b6d04a965
crafty 2 dise_full v2 35b51b67db90a370
eon 0 dedicated v1 b2c642134da03d59
eon 0 dedicated v2 4222d53576fa2c8d
eon 0 dedicated_no_single v1 ec6ab2ed2edefb66
eon 0 dedicated_no_single v2 f2210bffc1082568
eon 0 dise_unparameterized v1 72f01aef2bce86fc
eon 0 dise_unparameterized v2 f3d1bccab5c432b2
eon 0 dise_wide_entries v1 2a7ee1ddcd24e6e1
eon 0 dise_wide_entries v2 e30c183105683729
eon 0 dise_parameterized v1 42bff33c05156b3c
eon 0 dise_parameterized v2 49f7162e497203f9
eon 0 dise_full v1 95f1da9bb7926bcc
eon 0 dise_full v2 ac8b6977d55c75a5
eon 1 dedicated v1 c60e558896af87a0
eon 1 dedicated v2 a4a0ecfb94f8e51b
eon 1 dedicated_no_single v1 2202b6a54a71561f
eon 1 dedicated_no_single v2 9feed522ac14438d
eon 1 dise_unparameterized v1 01e44c2a2bca20c6
eon 1 dise_unparameterized v2 eb25ca018b538b83
eon 1 dise_wide_entries v1 38c2905cfcc44116
eon 1 dise_wide_entries v2 aaacf74973d39692
eon 1 dise_parameterized v1 e62101772f72e7eb
eon 1 dise_parameterized v2 531fca3b676ebaa4
eon 1 dise_full v1 33e6cafb118e5c4e
eon 1 dise_full v2 e9ef04e1fc32ac46
eon 2 dedicated v1 b24a6dad2167439d
eon 2 dedicated v2 33598b61015dd6de
eon 2 dedicated_no_single v1 de79baa389c0e22c
eon 2 dedicated_no_single v2 d5f462f94cadaf73
eon 2 dise_unparameterized v1 f3786dfdaced9261
eon 2 dise_unparameterized v2 2927b8947b169af6
eon 2 dise_wide_entries v1 212db648ccb98794
eon 2 dise_wide_entries v2 3d971b575c163bb2
eon 2 dise_parameterized v1 a85bc3f1c1e56b2f
eon 2 dise_parameterized v2 a141d5a560df2560
eon 2 dise_full v1 13a8b2ad80fa5db5
eon 2 dise_full v2 385f4c0d39e44f90
gap 0 dedicated v1 420f3b45a205eda3
gap 0 dedicated v2 f89930afa622ad84
gap 0 dedicated_no_single v1 2f3f6b4175f45374
gap 0 dedicated_no_single v2 a02c4f6fc9aeb43d
gap 0 dise_unparameterized v1 77af3e37ab7fd68a
gap 0 dise_unparameterized v2 060e58787947f917
gap 0 dise_wide_entries v1 e8b2ae2fc7a5db80
gap 0 dise_wide_entries v2 a83ce769b9550573
gap 0 dise_parameterized v1 8eb6f84bd6b23b1d
gap 0 dise_parameterized v2 363c703967878e92
gap 0 dise_full v1 3abb86f7b2611f03
gap 0 dise_full v2 0ba9690475a4e79b
gap 1 dedicated v1 c46293ed5ed3ba9e
gap 1 dedicated v2 2a467259d4cc7e31
gap 1 dedicated_no_single v1 f9af6a5f554e9f89
gap 1 dedicated_no_single v2 253f052b8b722584
gap 1 dise_unparameterized v1 929fb2e662f189d0
gap 1 dise_unparameterized v2 464bd8f34f31a438
gap 1 dise_wide_entries v1 58af290181ba45e8
gap 1 dise_wide_entries v2 6869ff23056b8327
gap 1 dise_parameterized v1 3b187e42e88eaad8
gap 1 dise_parameterized v2 d9242a2fa4c0cace
gap 1 dise_full v1 61175c99a0911bb6
gap 1 dise_full v2 a33999cbf685c753
gap 2 dedicated v1 6d31462ec2ff3c8f
gap 2 dedicated v2 5f5c86ac4ca57764
gap 2 dedicated_no_single v1 5425c925a371bf42
gap 2 dedicated_no_single v2 24f1b5d5e5d1b515
gap 2 dise_unparameterized v1 63f480410b5c039a
gap 2 dise_unparameterized v2 a2737e26761efc05
gap 2 dise_wide_entries v1 8c0e740cb912fdbd
gap 2 dise_wide_entries v2 385a3c155a3933d3
gap 2 dise_parameterized v1 62d3d1d404bdcf7d
gap 2 dise_parameterized v2 8d4fc01829e0d322
gap 2 dise_full v1 bb9e23ab56d5441c
gap 2 dise_full v2 b85c7b1f84a60dea
gcc 0 dedicated v1 4ecbb41dacb02a09
gcc 0 dedicated v2 70172bf4c60d1d28
gcc 0 dedicated_no_single v1 8ce19b0c5f172e14
gcc 0 dedicated_no_single v2 0d92939bd63b20c4
gcc 0 dise_unparameterized v1 a513fe443be687fa
gcc 0 dise_unparameterized v2 6ddd1f6255dcf3fc
gcc 0 dise_wide_entries v1 df734f2d6f2512ad
gcc 0 dise_wide_entries v2 7f9cbdb6cabbdfcc
gcc 0 dise_parameterized v1 bf1414414d78039f
gcc 0 dise_parameterized v2 d6c01e132c72f0a0
gcc 0 dise_full v1 27f0ddc42836c5dc
gcc 0 dise_full v2 3db3da2011e79cef
gcc 1 dedicated v1 b7371291cde56b36
gcc 1 dedicated v2 8a4923b82cbb6e29
gcc 1 dedicated_no_single v1 d1e220d5efacdcf6
gcc 1 dedicated_no_single v2 8c105b0635f27a82
gcc 1 dise_unparameterized v1 b1dab2dd5776e8ef
gcc 1 dise_unparameterized v2 085fef25bc5fe26e
gcc 1 dise_wide_entries v1 067df2bae3bad9c0
gcc 1 dise_wide_entries v2 979ed9845ce0d226
gcc 1 dise_parameterized v1 534e60acb1d2e257
gcc 1 dise_parameterized v2 4dae7264486db76e
gcc 1 dise_full v1 51098579e4fbf125
gcc 1 dise_full v2 c1fee8c5d9309ad1
gcc 2 dedicated v1 363d0b18d05ae1d5
gcc 2 dedicated v2 002c05b3028bfbfb
gcc 2 dedicated_no_single v1 7f3719a884c9551a
gcc 2 dedicated_no_single v2 055a7ee3a91ffe51
gcc 2 dise_unparameterized v1 e107cc2b939a6835
gcc 2 dise_unparameterized v2 122f52a55c258e3e
gcc 2 dise_wide_entries v1 f5c09b0c86d4a76f
gcc 2 dise_wide_entries v2 a3bab5c717a67037
gcc 2 dise_parameterized v1 df7a21928fc61040
gcc 2 dise_parameterized v2 247f788cbc3d70a0
gcc 2 dise_full v1 4a57d4d71d3a201a
gcc 2 dise_full v2 e87e5f98ce37b02c
gzip 0 dedicated v1 611bfc1cd0e1e825
gzip 0 dedicated v2 c8d72f89a119df17
gzip 0 dedicated_no_single v1 fed20a5362ed9ec3
gzip 0 dedicated_no_single v2 330aded4ab4efa00
gzip 0 dise_unparameterized v1 50e08e19d05637ac
gzip 0 dise_unparameterized v2 7fee8b7dd411e106
gzip 0 dise_wide_entries v1 fd1fbfda40622d84
gzip 0 dise_wide_entries v2 edd5cabe0b9656d9
gzip 0 dise_parameterized v1 bda45e16bf38ae92
gzip 0 dise_parameterized v2 5297d6bcdda0e0ed
gzip 0 dise_full v1 e24bc43d7a654810
gzip 0 dise_full v2 5fe4b6c0f84f126b
gzip 1 dedicated v1 101f229e109dd6a3
gzip 1 dedicated v2 16da3a25cefacb75
gzip 1 dedicated_no_single v1 f2dbf48fbdb2fda6
gzip 1 dedicated_no_single v2 4fd01024915d5be9
gzip 1 dise_unparameterized v1 4c3541354d0e0be2
gzip 1 dise_unparameterized v2 9adfc996d94bc8cf
gzip 1 dise_wide_entries v1 d1920675b6cbdda2
gzip 1 dise_wide_entries v2 d0d163f64d11acb5
gzip 1 dise_parameterized v1 4626132fcd2a9c19
gzip 1 dise_parameterized v2 06c364ac901e8f44
gzip 1 dise_full v1 744d8f8a4389ea3f
gzip 1 dise_full v2 75d6f39f40637173
gzip 2 dedicated v1 e20b3b7bb617bc69
gzip 2 dedicated v2 8535aca4e3c02347
gzip 2 dedicated_no_single v1 8ea4d64b67833d22
gzip 2 dedicated_no_single v2 b849b2d393a2fb4f
gzip 2 dise_unparameterized v1 5b8ce22cd3b11b2d
gzip 2 dise_unparameterized v2 5e4c271f8db52115
gzip 2 dise_wide_entries v1 7b82993870621c81
gzip 2 dise_wide_entries v2 a175e9ee5d9c3647
gzip 2 dise_parameterized v1 3b5c0fdf83ff91de
gzip 2 dise_parameterized v2 ba415dbf15e1dc3e
gzip 2 dise_full v1 2c402b9fd60b391f
gzip 2 dise_full v2 ba6040c68bfaef00
mcf 0 dedicated v1 9c1e76223522047e
mcf 0 dedicated v2 bfd65a708bacb2ad
mcf 0 dedicated_no_single v1 c9b4e4e8fc553cbd
mcf 0 dedicated_no_single v2 8173d71eb77b25ff
mcf 0 dise_unparameterized v1 10775566ba912fac
mcf 0 dise_unparameterized v2 5c51694c52b117c9
mcf 0 dise_wide_entries v1 64941205e42dcd5f
mcf 0 dise_wide_entries v2 5350c5a75ea85be9
mcf 0 dise_parameterized v1 8db86836aa00c768
mcf 0 dise_parameterized v2 dd540788cefd02d2
mcf 0 dise_full v1 15dbc7e751b64479
mcf 0 dise_full v2 f772ae156ea899bc
mcf 1 dedicated v1 c50a381f2ea75c80
mcf 1 dedicated v2 4590512889f12e12
mcf 1 dedicated_no_single v1 1e067e2f49aa6757
mcf 1 dedicated_no_single v2 2e9fc8b92e8beeb2
mcf 1 dise_unparameterized v1 84b174d4cfbf08f7
mcf 1 dise_unparameterized v2 d68d32d914da164f
mcf 1 dise_wide_entries v1 22ea0e0122c00b16
mcf 1 dise_wide_entries v2 95c21bff211812d5
mcf 1 dise_parameterized v1 c27074fa4744c0bf
mcf 1 dise_parameterized v2 8e48a23aff7126c4
mcf 1 dise_full v1 f0c9941aa58ca13a
mcf 1 dise_full v2 115671cea1760d6b
mcf 2 dedicated v1 29acf8f8c4f4ff52
mcf 2 dedicated v2 eb1fe8289beececc
mcf 2 dedicated_no_single v1 b815e38e61515107
mcf 2 dedicated_no_single v2 f105cede67c09180
mcf 2 dise_unparameterized v1 9df5622d608175d9
mcf 2 dise_unparameterized v2 6fb6a948f50a1a35
mcf 2 dise_wide_entries v1 2b56cb3a635fa18a
mcf 2 dise_wide_entries v2 abf44dcd6815416d
mcf 2 dise_parameterized v1 630867d8fd3cfe7b
mcf 2 dise_parameterized v2 dd5dc4ad3726a50e
mcf 2 dise_full v1 36712029e93f1b6b
mcf 2 dise_full v2 d980eae884c746d6
parser 0 dedicated v1 c32bdd3a81fbc6df
parser 0 dedicated v2 271a74d96d571d64
parser 0 dedicated_no_single v1 124af6198c961a62
parser 0 dedicated_no_single v2 0154528ed079ee45
parser 0 dise_unparameterized v1 266b41c2e1d2db60
parser 0 dise_unparameterized v2 5eed48b09d60a1bd
parser 0 dise_wide_entries v1 676374d46b0492a6
parser 0 dise_wide_entries v2 8b47fce20f4ba51a
parser 0 dise_parameterized v1 0d6b576b538a79a0
parser 0 dise_parameterized v2 efb9cb3f955d2709
parser 0 dise_full v1 49c0dfae5be19e13
parser 0 dise_full v2 242de76050b01a3a
parser 1 dedicated v1 52bd6bd5fad43c76
parser 1 dedicated v2 c769a8e3485333cf
parser 1 dedicated_no_single v1 13686c18557e96f0
parser 1 dedicated_no_single v2 2986a837e3e7ac72
parser 1 dise_unparameterized v1 b386df898580383d
parser 1 dise_unparameterized v2 0fcdff9a0d415c2e
parser 1 dise_wide_entries v1 a9f1e9420ba12a11
parser 1 dise_wide_entries v2 14996df4a50481a7
parser 1 dise_parameterized v1 9f9395eadffeb67d
parser 1 dise_parameterized v2 fff65959f544c800
parser 1 dise_full v1 3f1c97908689d1fe
parser 1 dise_full v2 f97c09d09878d4b3
parser 2 dedicated v1 a11711af8afef63d
parser 2 dedicated v2 443963ace3246037
parser 2 dedicated_no_single v1 b792ace449b18f56
parser 2 dedicated_no_single v2 2cd9c8fffb7fe8fb
parser 2 dise_unparameterized v1 ae980e65cfea15ce
parser 2 dise_unparameterized v2 0ce24e1c0970b485
parser 2 dise_wide_entries v1 eda44830f8c0f393
parser 2 dise_wide_entries v2 ac0102411a5c6cfb
parser 2 dise_parameterized v1 71098251f5d22922
parser 2 dise_parameterized v2 1b7eefa2f38c5b00
parser 2 dise_full v1 52c496156698eea3
parser 2 dise_full v2 388b1be1b0e07ce9
perlbmk 0 dedicated v1 7a0f1944001a2158
perlbmk 0 dedicated v2 a5bafbe1045ba25a
perlbmk 0 dedicated_no_single v1 53cdf4aeb9ee0d83
perlbmk 0 dedicated_no_single v2 66b6ea6e062afed3
perlbmk 0 dise_unparameterized v1 3eabb542f2b768e1
perlbmk 0 dise_unparameterized v2 71811e7c43961a4e
perlbmk 0 dise_wide_entries v1 b93fbc6cca88a8f3
perlbmk 0 dise_wide_entries v2 53d994c644a8fd62
perlbmk 0 dise_parameterized v1 9802219b1ebce652
perlbmk 0 dise_parameterized v2 e736b5efe60398eb
perlbmk 0 dise_full v1 5cef37b36d2874bc
perlbmk 0 dise_full v2 4c2d543f1c7f635b
perlbmk 1 dedicated v1 1ccabc21defaad52
perlbmk 1 dedicated v2 ed5e590123eb0ce6
perlbmk 1 dedicated_no_single v1 839889f0b4d71925
perlbmk 1 dedicated_no_single v2 89f6d3df03f7d643
perlbmk 1 dise_unparameterized v1 1a55df80eee29ec6
perlbmk 1 dise_unparameterized v2 29513cefd705c2e4
perlbmk 1 dise_wide_entries v1 b2fcb21a9d708989
perlbmk 1 dise_wide_entries v2 a939ac6317f98fbf
perlbmk 1 dise_parameterized v1 21b7c031bcdbac40
perlbmk 1 dise_parameterized v2 77bbb7bdb6fccdd5
perlbmk 1 dise_full v1 5d332d539a5ba8dc
perlbmk 1 dise_full v2 14a7b5879a415aa5
perlbmk 2 dedicated v1 93bfc24403512dbb
perlbmk 2 dedicated v2 0e267f03f3fc92f1
perlbmk 2 dedicated_no_single v1 48c874b82f3806cf
perlbmk 2 dedicated_no_single v2 3e3e3731936634a4
perlbmk 2 dise_unparameterized v1 b37fa1a591ff1534
perlbmk 2 dise_unparameterized v2 23b820d224321305
perlbmk 2 dise_wide_entries v1 abc344dcc03899ef
perlbmk 2 dise_wide_entries v2 3c1b5f701579d1c0
perlbmk 2 dise_parameterized v1 217dc4d8b47b3100
perlbmk 2 dise_parameterized v2 f97ddff0740e2fcf
perlbmk 2 dise_full v1 06ad6d7894b3c0e4
perlbmk 2 dise_full v2 8a08a2ab0f047380
twolf 0 dedicated v1 bb8063ec986f59aa
twolf 0 dedicated v2 910b6c48a96d2130
twolf 0 dedicated_no_single v1 fe409f8556517885
twolf 0 dedicated_no_single v2 2df1a250e3ef9c24
twolf 0 dise_unparameterized v1 86971ada0044cc4f
twolf 0 dise_unparameterized v2 57c036c8bc56b998
twolf 0 dise_wide_entries v1 c7780d3fdf452004
twolf 0 dise_wide_entries v2 a8e3faab66c3c2e6
twolf 0 dise_parameterized v1 ec8225e6aa7fc2a9
twolf 0 dise_parameterized v2 c7b205d3547b7370
twolf 0 dise_full v1 241f4c948bfdeb74
twolf 0 dise_full v2 5073becf0cee3dab
twolf 1 dedicated v1 40608fcfe7754398
twolf 1 dedicated v2 1ef604cbd207c0ee
twolf 1 dedicated_no_single v1 756674835aa6c0c7
twolf 1 dedicated_no_single v2 e8515ecc34d2913c
twolf 1 dise_unparameterized v1 a99a13f2c198b6c5
twolf 1 dise_unparameterized v2 e2380251ec21af08
twolf 1 dise_wide_entries v1 860e825b3610e627
twolf 1 dise_wide_entries v2 5103a7cdd0f0d706
twolf 1 dise_parameterized v1 8016065a5ddcd27b
twolf 1 dise_parameterized v2 32fb167a81f61c86
twolf 1 dise_full v1 e93e61573a8b9a0e
twolf 1 dise_full v2 0046febb632ee4bf
twolf 2 dedicated v1 3fa7e021e8809f71
twolf 2 dedicated v2 9291a35d4c830617
twolf 2 dedicated_no_single v1 27a1731f30585caf
twolf 2 dedicated_no_single v2 45ee156a5466b2ef
twolf 2 dise_unparameterized v1 7de0a4823e1568b1
twolf 2 dise_unparameterized v2 955c896bb13dc682
twolf 2 dise_wide_entries v1 d24895b4d3793588
twolf 2 dise_wide_entries v2 4e1a00e210cdfed5
twolf 2 dise_parameterized v1 1923c5a13e5b9f99
twolf 2 dise_parameterized v2 e789b703febb1229
twolf 2 dise_full v1 48ad575c8db6e42d
twolf 2 dise_full v2 e5d102db596ec945
vortex 0 dedicated v1 869d3288400ae25f
vortex 0 dedicated v2 5bc00d74f4d59c42
vortex 0 dedicated_no_single v1 3bd2df74fd11e507
vortex 0 dedicated_no_single v2 40617dc6fc2ec609
vortex 0 dise_unparameterized v1 d68fccac79c592fa
vortex 0 dise_unparameterized v2 6aaf9eae0530c11f
vortex 0 dise_wide_entries v1 3ee1b7fce7c573f3
vortex 0 dise_wide_entries v2 4ca22c201dbc5c84
vortex 0 dise_parameterized v1 b2c6e9bd51126b8b
vortex 0 dise_parameterized v2 bc1c6140935136a9
vortex 0 dise_full v1 d575eed8feeffcf0
vortex 0 dise_full v2 66fdbe4fcf3e2fbe
vortex 1 dedicated v1 ad3f4bc861fd9130
vortex 1 dedicated v2 0465360c92ba8cab
vortex 1 dedicated_no_single v1 8ad2b2877539a720
vortex 1 dedicated_no_single v2 7cd3242090dad6ed
vortex 1 dise_unparameterized v1 375cda9ab632b269
vortex 1 dise_unparameterized v2 7eeb76d80f3fe4ce
vortex 1 dise_wide_entries v1 88c6494abe9db679
vortex 1 dise_wide_entries v2 3c1aa91325eb2fe1
vortex 1 dise_parameterized v1 f780ace353b24d5f
vortex 1 dise_parameterized v2 e0b2c176f7a59293
vortex 1 dise_full v1 a79a444829a35318
vortex 1 dise_full v2 0f33676b1bd54999
vortex 2 dedicated v1 a476f0b5037d1a6d
vortex 2 dedicated v2 1316235bf5b2196e
vortex 2 dedicated_no_single v1 0c239520e6bb76b0
vortex 2 dedicated_no_single v2 3243e0dda6c805be
vortex 2 dise_unparameterized v1 2768de6989c113ac
vortex 2 dise_unparameterized v2 d7506aed60c0a3b0
vortex 2 dise_wide_entries v1 baf18bc3ece8b3f8
vortex 2 dise_wide_entries v2 c912917be7baa00a
vortex 2 dise_parameterized v1 be582ef1257b8f34
vortex 2 dise_parameterized v2 90780efbaf575518
vortex 2 dise_full v1 ba893bf032efcfb9
vortex 2 dise_full v2 36e6f2d490b5545f
vpr 0 dedicated v1 eb3e277ca623571e
vpr 0 dedicated v2 bbe3f84e6c1eb44b
vpr 0 dedicated_no_single v1 c1236f0df646bfda
vpr 0 dedicated_no_single v2 c3957f079534169e
vpr 0 dise_unparameterized v1 b12d477ec449e10a
vpr 0 dise_unparameterized v2 4f32a172b5aa5213
vpr 0 dise_wide_entries v1 a88e05e365183b3f
vpr 0 dise_wide_entries v2 3b46c51b5dce9c3b
vpr 0 dise_parameterized v1 734c7ba20f1cec5d
vpr 0 dise_parameterized v2 d14cc20bca8c7062
vpr 0 dise_full v1 ddd89de399706d88
vpr 0 dise_full v2 dbe45f804f823d4a
vpr 1 dedicated v1 a45885c27f112b94
vpr 1 dedicated v2 44ec97a2cc41ece3
vpr 1 dedicated_no_single v1 f8e631b19358056f
vpr 1 dedicated_no_single v2 fb9aefc58f076612
vpr 1 dise_unparameterized v1 a9ec3d29bf82ce43
vpr 1 dise_unparameterized v2 e023f521649fe390
vpr 1 dise_wide_entries v1 e6db351375849fb0
vpr 1 dise_wide_entries v2 617f343bb849ec60
vpr 1 dise_parameterized v1 7469e351b0d2f6ab
vpr 1 dise_parameterized v2 6d0d740a6502c829
vpr 1 dise_full v1 5fde35db98cdadb6
vpr 1 dise_full v2 856efac9cf3d267c
vpr 2 dedicated v1 951ec637e9b1c6e5
vpr 2 dedicated v2 affbd4e0bc7921e4
vpr 2 dedicated_no_single v1 87142f562b0dbf82
vpr 2 dedicated_no_single v2 16e456f0cdc0d2bb
vpr 2 dise_unparameterized v1 3e88cbba6d2c24b0
vpr 2 dise_unparameterized v2 d91ca6a07073e467
vpr 2 dise_wide_entries v1 745a8fef09f55261
vpr 2 dise_wide_entries v2 f5cd2fbce8f49c55
vpr 2 dise_parameterized v1 eaa92c6801f9733b
vpr 2 dise_parameterized v2 82100f53200666ca
vpr 2 dise_full v1 745519597a53a632
vpr 2 dise_full v2 ddd907fffd50c6e0
";
