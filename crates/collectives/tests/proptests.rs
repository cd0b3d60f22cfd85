//! Property tests: thread-based collectives match naive reference reductions.

use dos_collectives::{CollectiveError, Communicator};
use dos_tensor::{kernels, F16};
use proptest::prelude::*;
use std::thread;

fn run_collective<T: Send + 'static>(
    inputs: Vec<Vec<f32>>,
    op: impl Fn(Communicator, Vec<f32>) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let world = inputs.len();
    let comms = Communicator::world(world);
    let handles: Vec<_> = comms
        .into_iter()
        .zip(inputs)
        .map(|(c, data)| {
            let op = op.clone();
            thread::spawn(move || op(c, data))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Bit patterns the exchange must carry and sum like any other: signed
/// zeros, subnormals, infinities, NaNs with payloads.
const AWKWARD: [u32; 10] = [
    0x0000_0000, // 0.0
    0x8000_0000, // -0.0
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // largest negative subnormal
    0x7f80_0000, // inf
    0xff80_0000, // -inf
    0x7fc0_0001, // quiet NaN with a payload
    0xffa5_5aa5, // signalling NaN, negative, with a payload
    0x3f80_0001, // 1.0 + 1 ulp
    0xc2f6_e979, // -123.456
];

/// A deterministic buffer for `rank`: awkward patterns and ordinary values.
fn awkward_buffer(seed: u64, rank: usize, len: usize) -> Vec<f32> {
    let mut x = seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let pick = (x >> 33) as usize;
            if pick.is_multiple_of(3) {
                f32::from_bits(AWKWARD[(pick / 3) % AWKWARD.len()])
            } else {
                ((pick % 20_011) as f32 - 10_000.0) * 0.37
            }
        })
        .collect()
}

/// Half bit patterns the widening gather must carry: signed zeros,
/// subnormals, infinities, NaNs with payloads, ordinary values.
const AWKWARD_F16: [u16; 10] =
    [0x0000, 0x8000, 0x0001, 0x83ff, 0x7c00, 0xfc00, 0x7e01, 0xfd55, 0x3c01, 0xd7b7];

/// [`awkward_buffer`]'s pattern as halves: awkward and random bits.
fn awkward_halves(seed: u64, rank: usize, len: usize) -> Vec<F16> {
    awkward_buffer(seed, rank, len)
        .iter()
        .map(|x| match x.to_bits() {
            b if b % 3 == 0 => F16::from_bits(AWKWARD_F16[(b / 3) as usize % AWKWARD_F16.len()]),
            b => F16::from_bits((b >> 7) as u16),
        })
        .collect()
}

/// What one rank reads back from a run of all five collectives.
struct Outputs {
    rank: usize,
    scattered: Vec<f32>,
    reduced: Vec<f32>,
    gathered: Vec<f32>,
    gathered_f16: Vec<F16>,
    gathered_var: Vec<f32>,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Sums compare bit for bit, except that two NaNs count as equal: which
/// operand's payload an addition of two NaNs keeps is the instruction
/// selector's choice, not the collective's.
fn same_sums(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_collective_matches_the_sequential_rank_order_reference_bitwise(
        world in 1usize..6,
        chunks in 0usize..5,
        seed in any::<u64>(),
    ) {
        // `chunks == 0` is the empty buffer; the var-gather's shards grow
        // with the rank, rank 0 contributing nothing.
        let len = world * chunks;
        let inputs: Vec<Vec<f32>> = (0..world).map(|r| awkward_buffer(seed, r, len)).collect();
        let halves = |d: &[f32]| d.iter().map(|x| F16::from_bits(x.to_bits() as u16)).collect::<Vec<_>>();
        let mut total = vec![0.0f32; len];
        for input in &inputs {
            for (t, x) in total.iter_mut().zip(input) {
                *t += x;
            }
        }
        let concat: Vec<f32> = inputs.concat();
        let concat_f16: Vec<F16> = inputs.iter().flat_map(|d| halves(d)).collect();
        let concat_var: Vec<f32> = inputs
            .iter()
            .enumerate()
            .flat_map(|(r, d)| d[..(r * chunks).min(len)].to_vec())
            .collect();
        let results = run_collective(inputs, move |c, d| {
            let mut reduced = d.clone();
            c.all_reduce_sum(&mut reduced).unwrap();
            let shard = &d[..(c.rank() * chunks).min(d.len())];
            Outputs {
                rank: c.rank(),
                scattered: c.reduce_scatter_sum(&d).unwrap(),
                reduced,
                gathered: c.all_gather(&d).unwrap(),
                gathered_f16: c.all_gather_f16(&halves(&d)).unwrap(),
                gathered_var: c.all_gather_var(shard).unwrap(),
            }
        });
        for out in results {
            let own = out.rank * chunks..(out.rank + 1) * chunks;
            prop_assert!(same_sums(&out.scattered, &total[own]), "reduce_scatter, rank {}", out.rank);
            prop_assert!(same_sums(&out.reduced, &total), "all_reduce, rank {}", out.rank);
            prop_assert_eq!(bits(&out.gathered), bits(&concat));
            prop_assert_eq!(&out.gathered_f16, &concat_f16);
            prop_assert_eq!(bits(&out.gathered_var), bits(&concat_var));
        }
    }

    #[test]
    fn disagreeing_lengths_are_reported_in_full_on_every_rank(
        world in 2usize..6,
        chunks in 0usize..4,
        odd_rank in 0usize..5,
        extra in 1usize..3,
    ) {
        // One rank's buffer is `extra` chunks longer; every rank must see
        // the lengths the callers passed, not what travelled.
        let odd_rank = odd_rank % world;
        let lengths: Vec<usize> =
            (0..world).map(|r| world * (chunks + if r == odd_rank { extra } else { 0 })).collect();
        let inputs: Vec<Vec<f32>> = lengths.iter().map(|&n| vec![1.0; n]).collect();
        let results = run_collective(inputs, |c, mut d| {
            let halves = vec![F16::from_f32(1.0); d.len()];
            (
                c.reduce_scatter_sum(&d).unwrap_err(),
                c.all_gather(&d).unwrap_err(),
                c.all_gather_f16(&halves).unwrap_err(),
                c.all_reduce_sum(&mut d).unwrap_err(),
            )
        });
        let want = CollectiveError::LengthMismatch { lengths };
        for (scatter, gather, gather_f16, reduce) in results {
            prop_assert_eq!(&scatter, &want);
            prop_assert_eq!(&gather, &want);
            prop_assert_eq!(&gather_f16, &want);
            prop_assert_eq!(&reduce, &want);
        }
    }

    #[test]
    fn a_length_the_world_does_not_divide_is_an_uneven_partition(
        world in 2usize..6,
        len in 1usize..40,
    ) {
        prop_assume!(!len.is_multiple_of(world));
        let results = run_collective(vec![vec![0.5; len]; world], |c, d| c.reduce_scatter_sum(&d));
        for r in results {
            prop_assert_eq!(r, Err(CollectiveError::UnevenPartition { len, world }));
        }
    }

    #[test]
    fn all_reduce_matches_reference(
        world in 1usize..5,
        len in 1usize..16,
        seed in any::<u32>(),
    ) {
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|r| (0..len).map(|i| ((seed as usize + r * 31 + i * 7) % 100) as f32 / 10.0).collect())
            .collect();
        let mut expected = vec![0.0f32; len];
        for input in &inputs {
            for (e, x) in expected.iter_mut().zip(input.iter()) {
                *e += x;
            }
        }
        let results = run_collective(inputs, |c, mut d| {
            c.all_reduce_sum(&mut d).unwrap();
            d
        });
        for r in results {
            prop_assert_eq!(&r, &expected);
        }
    }

    #[test]
    fn all_gather_matches_reference(
        world in 1usize..5,
        len in 1usize..8,
    ) {
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|r| (0..len).map(|i| (r * 100 + i) as f32).collect())
            .collect();
        let expected: Vec<f32> = inputs.concat();
        let results = run_collective(inputs, |c, d| c.all_gather(&d).unwrap());
        for r in results {
            prop_assert_eq!(&r, &expected);
        }
    }

    #[test]
    fn reduce_scatter_shards_the_reduction(
        world in 1usize..5,
        chunks in 1usize..6,
    ) {
        let len = world * chunks;
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|r| (0..len).map(|i| (r + 1) as f32 * (i + 1) as f32).collect())
            .collect();
        let mut total = vec![0.0f32; len];
        for input in &inputs {
            for (t, x) in total.iter_mut().zip(input.iter()) {
                *t += x;
            }
        }
        let results = run_collective(inputs, |c, d| {
            let rank = c.rank();
            let mut out = c.reduce_scatter_sum(&d).unwrap();
            out.insert(0, rank as f32); // carry rank for the assertion
            out
        });
        for r in results {
            let rank = r[0] as usize;
            prop_assert_eq!(&r[1..], &total[rank * chunks..(rank + 1) * chunks]);
        }
    }

    /// The in-place forms the training loop runs on a model's world-padded
    /// buffers give the bits of the copying forms and their separate
    /// passes: the reduce-scatter with its `1/world` scale folded into its
    /// one pass (the other chunks left as they were), and the FP16
    /// all-gather widened on arrival.
    #[test]
    fn in_place_reduce_scatter_and_widening_gather_match_the_copying_forms_bitwise(
        world in 1usize..5,
        chunks in 0usize..40,
        tail in 0usize..8,
        seed in any::<u64>(),
    ) {
        // Zeros pad the last `tail` elements, as they pad a model's space.
        let len = world * chunks;
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|r| {
                let mut g = awkward_buffer(seed, r, len.saturating_sub(tail));
                g.resize(len, 0.0);
                g
            })
            .collect();
        let results = run_collective(inputs, move |c, d| {
            let (rank, inv) = (c.rank(), 1.0 / c.world_size() as f32);
            let mut copied = c.reduce_scatter_sum(&d).unwrap();
            for g in copied.iter_mut() {
                *g *= inv;
            }
            let mut in_place = d.clone();
            c.reduce_scatter_sum_in_place(&mut in_place, inv).unwrap();
            let own = rank * chunks..(rank + 1) * chunks;
            let mut rest = d.clone();
            rest[own.clone()].copy_from_slice(&in_place[own.clone()]);

            let shard = awkward_halves(seed, rank, chunks);
            let halves = c.all_gather_f16(&shard).unwrap();
            let mut widened = vec![0.0; halves.len()];
            kernels::upscale(&halves, &mut widened);
            let mut into = vec![f32::NAN; len];
            c.all_gather_f16_into(&shard, &mut into).unwrap();
            [copied, in_place[own].to_vec(), rest, in_place, widened, into].map(|v| bits(&v))
        });
        for [copied, in_place, rest, whole, widened, into] in results {
            prop_assert_eq!(copied, in_place);
            prop_assert_eq!(rest, whole, "only the rank's own chunk is written");
            prop_assert_eq!(widened, into);
        }
    }
}

/// At world 1 the reduce-scatter still sums from `+0.0`, so a `−0.0`
/// gradient comes out `+0.0`, in place as in the copying form: the world-1
/// collective is not a no-op on the bits.
#[test]
fn a_negative_zero_gradient_comes_out_positive_at_world_1() {
    let comm = Communicator::world(1).pop().unwrap();
    let mut g = vec![-0.0f32, -1.5];
    assert_eq!(bits(&comm.reduce_scatter_sum(&g).unwrap()), bits(&[0.0, -1.5]));
    comm.reduce_scatter_sum_in_place(&mut g, 1.0).unwrap();
    assert_eq!(bits(&g), bits(&[0.0, -1.5]));
}
