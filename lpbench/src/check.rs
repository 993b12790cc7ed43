//! Output checks. Each check compares the program's output against a
//! reference that does not come from the code under test: native integer
//! arithmetic for the generated adders and multipliers, the input netlist
//! for every optimized netlist, the transition-parity law for glitch
//! counts, the serial run for sharded runs, and `serve::worker::cold_run`
//! for served answers.

use lowpower::netlist::{NetId, Netlist, Rng64};
use lowpower::sim::comb::CombSim;
use lowpower::sim::seq::SeqSim;
use lowpower::sim::stimulus::PatternSet;
use lowpower::sim::ActivityProfile;

/// Random 64-pattern blocks compared when a netlist has too many inputs
/// for an exhaustive check (1024 blocks = 65 536 patterns).
const RANDOM_BLOCKS: usize = 1024;

/// Inputs up to which equivalence is checked exhaustively.
const EXHAUSTIVE_INPUTS: usize = 16;

/// Word of input `i` in 64-pattern block `blk` of the exhaustive
/// enumeration (pattern `64 * blk + j` sets input `i` to bit `i` of its
/// index).
fn exhaustive_word(i: usize, blk: usize) -> u64 {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    if i < 6 {
        LOW[i]
    } else if (blk >> (i - 6)) & 1 == 1 {
        !0
    } else {
        0
    }
}

/// Check that `b` computes the same outputs as `a`, position by position:
/// exhaustively up to 16 inputs, otherwise on 65 536 random patterns drawn
/// from `seed`.
pub fn equivalent(a: &Netlist, b: &Netlist, seed: u64) -> Result<(), String> {
    if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
        return Err(format!(
            "interface changed: {}x{} -> {}x{}",
            a.num_inputs(),
            a.num_outputs(),
            b.num_inputs(),
            b.num_outputs()
        ));
    }
    let n = a.num_inputs();
    let exhaustive = n <= EXHAUSTIVE_INPUTS;
    let (blocks, valid) = if exhaustive {
        let patterns = 1usize << n;
        let valid = if patterns >= 64 {
            !0
        } else {
            (1u64 << patterns) - 1
        };
        (patterns.div_ceil(64), valid)
    } else {
        (RANDOM_BLOCKS, !0)
    };
    let (sim_a, sim_b) = (CombSim::new(a), CombSim::new(b));
    let mut rng = Rng64::new(seed);
    let mut words = vec![0u64; n];
    let (mut va, mut vb, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    for blk in 0..blocks {
        for (i, w) in words.iter_mut().enumerate() {
            *w = if exhaustive {
                exhaustive_word(i, blk)
            } else {
                rng.next_u64()
            };
        }
        sim_a.eval_words_into(&words, &mut va, &mut scratch);
        sim_b.eval_words_into(&words, &mut vb, &mut scratch);
        for (k, ((na, _), (nb, _))) in a.outputs().iter().zip(b.outputs()).enumerate() {
            if (va[na.index()] ^ vb[nb.index()]) & valid != 0 {
                return Err(format!("output {k} differs in pattern block {blk}"));
            }
        }
    }
    Ok(())
}

/// Position of each net among the primary inputs.
fn input_positions(nl: &Netlist, nets: &[NetId]) -> Result<Vec<usize>, String> {
    nets.iter()
        .map(|net| {
            nl.inputs()
                .iter()
                .position(|pi| pi == net)
                .ok_or_else(|| format!("net {} is not a primary input", net.index()))
        })
        .collect()
}

/// Check that `out` (LSB first) equals `op(a, b)` for random operands
/// `a`, `b` (LSB-first input nets), over `blocks` blocks of 64 samples.
pub fn arithmetic(
    nl: &Netlist,
    a: &[NetId],
    b: &[NetId],
    out: &[NetId],
    op: fn(u128, u128) -> u128,
    blocks: usize,
    seed: u64,
) -> Result<(), String> {
    assert!(a.len() <= 64 && b.len() <= 64 && out.len() <= 128);
    let (pa, pb) = (input_positions(nl, a)?, input_positions(nl, b)?);
    let mask = |bits: usize| {
        if bits >= 128 {
            !0u128
        } else {
            (1u128 << bits) - 1
        }
    };
    let sim = CombSim::new(nl);
    let mut rng = Rng64::new(seed);
    let mut words = vec![0u64; nl.num_inputs()];
    let (mut values, mut scratch) = (Vec::new(), Vec::new());
    for blk in 0..blocks {
        let ops: Vec<(u128, u128)> = (0..64)
            .map(|_| {
                (
                    u128::from(rng.next_u64()) & mask(a.len()),
                    u128::from(rng.next_u64()) & mask(b.len()),
                )
            })
            .collect();
        words.iter_mut().for_each(|w| *w = 0);
        for (j, &(x, y)) in ops.iter().enumerate() {
            for (i, &p) in pa.iter().enumerate() {
                words[p] |= ((x >> i & 1) as u64) << j;
            }
            for (i, &p) in pb.iter().enumerate() {
                words[p] |= ((y >> i & 1) as u64) << j;
            }
        }
        sim.eval_words_into(&words, &mut values, &mut scratch);
        for (j, &(x, y)) in ops.iter().enumerate() {
            let got = out.iter().enumerate().fold(0u128, |acc, (i, net)| {
                acc | u128::from(values[net.index()] >> j & 1) << i
            });
            let want = op(x, y) & mask(out.len());
            if got != want {
                return Err(format!("{x} op {y}: got {got}, want {want} (block {blk})"));
            }
        }
    }
    Ok(())
}

/// Check the registered `n`-bit pipelined multiplier: the output word at
/// cycle `t` is the product of the operands applied at cycle `t - 2`.
pub fn pipelined_product(nl: &Netlist, n: usize, patterns: &PatternSet) -> Result<(), String> {
    let word = |bits: &[bool]| {
        bits.iter()
            .enumerate()
            .fold(0u128, |acc, (i, &b)| acc | u128::from(b) << i)
    };
    let trace = SeqSim::new(nl).run(patterns);
    for t in 2..patterns.len() {
        let (a, b) = (
            word(&patterns[t - 2][..n]),
            word(&patterns[t - 2][n..2 * n]),
        );
        let got = word(&trace[t]);
        if got != a * b {
            return Err(format!("cycle {t}: {a} * {b} gave {got}"));
        }
    }
    Ok(())
}

/// Check a glitch-aware profile `total` against the zero-delay profile
/// `functional` of the same stream. Within one cycle a net starts at its
/// old settled value and ends at its new one, so its transition count is
/// at least its functional toggle (0 or 1) and has the same parity. Summed
/// over the stream, every net's glitch count `total - functional` is
/// therefore even and not negative.
pub fn glitch_parity(total: &ActivityProfile, functional: &ActivityProfile) -> Result<(), String> {
    if total.cycles != functional.cycles || total.toggles.len() != functional.toggles.len() {
        return Err("glitch and zero-delay profiles cover different streams".to_string());
    }
    let pairs = total.cycles.saturating_sub(1).max(1) as f64;
    for (i, (&t, &f)) in total.toggles.iter().zip(&functional.toggles).enumerate() {
        let (t, f) = ((t * pairs).round() as i64, (f * pairs).round() as i64);
        if t < f || (t - f) % 2 != 0 {
            return Err(format!(
                "net {i}: {t} transitions against {f} functional toggles"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowpower::netlist::gen::{kogge_stone_adder, pipelined_multiplier, wallace_multiplier};
    use lowpower::sim::stimulus::Stimulus;

    #[test]
    fn references_accept_correct_circuits_and_reject_swaps() {
        let (mult, nets) = wallace_multiplier(4);
        arithmetic(&mult, &nets.a, &nets.b, &nets.product, |x, y| x * y, 4, 1).unwrap();
        // Swapping two product bits must be caught.
        let mut wrong = nets.product.clone();
        wrong.swap(2, 3);
        assert!(arithmetic(&mult, &nets.a, &nets.b, &wrong, |x, y| x * y, 4, 1).is_err());

        let (add, nets) = kogge_stone_adder(8);
        let mut out = nets.sum.clone();
        out.push(nets.carry_out);
        arithmetic(&add, &nets.a, &nets.b, &out, |x, y| x + y, 4, 1).unwrap();

        let pm = pipelined_multiplier(3);
        let patterns = Stimulus::uniform(6).patterns(64, 3);
        pipelined_product(&pm, 3, &patterns).unwrap();
    }

    #[test]
    fn equivalence_catches_a_changed_gate() {
        let (a, _) = wallace_multiplier(3);
        equivalent(&a, &a.clone(), 1).unwrap();
        let mut b = a.clone();
        let gate = b
            .iter_nets()
            .find(|&n| b.kind(n) == lowpower::netlist::GateKind::And)
            .unwrap();
        b.set_kind(gate, lowpower::netlist::GateKind::Or);
        assert!(equivalent(&a, &b, 1).is_err());
    }
}
