//! Structural text serialisation — the `emcnet` interchange format.
//!
//! Generated circuits (see the `emc-gen` crate) become regression
//! fixtures by being written to disk in a plain, diff-friendly, line
//! oriented form and re-imported byte-identically. The format mirrors
//! the builder API one-to-one, so a file is also a replayable
//! construction trace:
//!
//! ```text
//! emcnet 1
//! g INPUT 1 - req
//! g C 1 n0,n0 sync
//! g INV 1 n1 nack
//! o n2
//! ```
//!
//! * The first non-comment line is the version header `emcnet 1`.
//! * `g <KIND> <DRIVE> <INPUTS> <NAME>` appends one gate. `KIND` is the
//!   [`GateKind`] mnemonic, `DRIVE` the relative drive strength in
//!   shortest-round-trip `f64` form, `INPUTS` a comma-separated list of
//!   `n<index>` references (`-` when empty), and `NAME` the rest of the
//!   line (it may contain spaces). The gate's output net takes the next
//!   free index, exactly as in the builder.
//! * `o n<index>` marks a circuit output, in declaration order.
//! * Blank lines and lines starting with `#` are ignored on import and
//!   never produced on export.
//!
//! Feedback arcs need no dedicated directive: an input reference at or
//! beyond the gate's own output index cannot have existed at
//! construction time, so the importer splits each input list at the
//! first such reference — the prefix is passed to
//! [`Netlist::gate_with_drive`], the suffix replayed through
//! [`Netlist::connect_feedback`] once all nets exist. Because feedback
//! only ever *appends* inputs, this reconstructs the exact input order,
//! which is what makes `import ∘ export` the identity and the round
//! trip byte-stable. The fanout lists and loads are built from the gate
//! records in gate-scan order (see [`Netlist::fanout`]), not from the
//! order of the builder calls, so the imported netlist lists every net's
//! readers in the exported one's order, with the same load bits, even
//! where the exporter closed a feedback arc before adding a later reader
//! of the same net.
//!
//! Only builder-constructed netlists are exportable: after
//! [`Netlist::rewire_output`] surgery a gate no longer owns the net of
//! its own index and [`to_text`] panics. Known-bad fixtures that need
//! surgery stay as code, not corpus files.

use std::fmt;
use std::fmt::Write as _;

use crate::gate::GateKind;
use crate::graph::{NetId, Netlist};

/// The version header beginning every `emcnet` file.
pub(crate) const TEXT_HEADER: &str = "emcnet 1";

/// Serialises a builder-constructed netlist to `emcnet` text.
///
/// The output is canonical: importing it with [`from_text`] and
/// exporting again reproduces the same bytes.
///
/// # Panics
///
/// Panics if the netlist has been through [`Netlist::rewire_output`]
/// surgery (a gate whose output net index differs from its gate index),
/// since the positional net encoding cannot represent shorted or
/// abandoned nets.
pub fn to_text(netlist: &Netlist) -> String {
    assert_eq!(
        netlist.net_count(),
        netlist.gate_count(),
        "netlist has been surgically rewired; the emcnet format only \
         covers builder-constructed netlists"
    );
    let mut out = String::with_capacity(32 * netlist.gate_count() + 16);
    out.push_str(TEXT_HEADER);
    out.push('\n');
    for (id, g) in netlist.iter_gates() {
        assert_eq!(
            g.output().index(),
            id.index(),
            "gate {id} does not own net n{} — netlist has been surgically \
             rewired and cannot be exported as emcnet text",
            id.index()
        );
        write!(out, "g {} {} ", g.kind(), g.drive()).expect("write to String");
        if g.inputs().is_empty() {
            out.push('-');
        } else {
            for (i, net) in g.inputs().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "n{}", net.index()).expect("write to String");
            }
        }
        out.push(' ');
        out.push_str(netlist.net_name(g.output()));
        out.push('\n');
    }
    for &net in netlist.outputs() {
        writeln!(out, "o n{}", net.index()).expect("write to String");
    }
    out
}

/// A parse failure in [`from_text`], anchored to a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextFormatError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for TextFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "emcnet line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextFormatError {}

fn fail<T>(line: usize, message: impl Into<String>) -> Result<T, TextFormatError> {
    Err(TextFormatError {
        line,
        message: message.into(),
    })
}

/// Parses one `n<index>` net reference.
fn parse_net_ref(line: usize, token: &str) -> Result<usize, TextFormatError> {
    let Some(digits) = token.strip_prefix('n') else {
        return fail(
            line,
            format!("expected net reference 'n<index>', got '{token}'"),
        );
    };
    match digits.parse::<usize>() {
        Ok(ix) => Ok(ix),
        Err(_) => fail(line, format!("invalid net index in '{token}'")),
    }
}

/// Reconstructs a [`Netlist`] from `emcnet` text.
///
/// The importer replays the file as a builder trace: gates are created
/// in line order, input references below the gate's own output index
/// are construction inputs, references at or above it are feedback arcs
/// closed in a second pass. Everything the builder would panic on
/// (arity violations, dangling references, non-positive drive) is
/// reported as a [`TextFormatError`] instead, so arbitrary corpus files
/// can be loaded safely.
///
/// # Errors
///
/// Returns a [`TextFormatError`] naming the first offending line for a
/// missing or wrong header, unknown directive or gate kind, malformed
/// net references or drive, arity violations, or out-of-range nets.
pub fn from_text(text: &str) -> Result<Netlist, TextFormatError> {
    let mut netlist = Netlist::new();
    let mut nets: Vec<NetId> = Vec::new();
    // Feedback arcs: (line, target net index, appended input indices).
    let mut feedback: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    let mut output_marks: Vec<(usize, usize)> = Vec::new();
    let mut header_seen = false;

    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim_end_matches('\r');
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if !header_seen {
            if trimmed != TEXT_HEADER {
                return fail(
                    line,
                    format!("expected header '{TEXT_HEADER}', got '{trimmed}'"),
                );
            }
            header_seen = true;
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("g ") {
            let mut fields = rest.splitn(4, ' ');
            let (Some(kind_s), Some(drive_s), Some(inputs_s)) =
                (fields.next(), fields.next(), fields.next())
            else {
                return fail(line, "gate line needs '<KIND> <DRIVE> <INPUTS> <NAME>'");
            };
            let name = fields.next().unwrap_or("");
            let kind: GateKind = match kind_s.parse() {
                Ok(k) => k,
                Err(e) => return fail(line, e.to_string()),
            };
            let drive: f64 = match drive_s.parse() {
                Ok(d) => d,
                Err(_) => return fail(line, format!("invalid drive '{drive_s}'")),
            };
            if !drive.is_finite() || drive <= 0.0 {
                return fail(line, format!("drive must be positive, got {drive_s}"));
            }
            let mut input_ix: Vec<usize> = Vec::new();
            if inputs_s != "-" {
                for token in inputs_s.split(',') {
                    input_ix.push(parse_net_ref(line, token)?);
                }
            }
            let out_ix = nets.len();
            // Inputs referring to nets that do not exist yet must be
            // feedback arcs; the builder prefix stops at the first one.
            let split = input_ix
                .iter()
                .position(|&ix| ix >= out_ix)
                .unwrap_or(input_ix.len());
            let (prefix, appended) = input_ix.split_at(split);
            let (lo, hi) = kind.arity();
            if prefix.len() < lo {
                return fail(
                    line,
                    format!(
                        "{kind} needs at least {lo} construction inputs \
                         (before any feedback reference), got {}",
                        prefix.len()
                    ),
                );
            }
            if input_ix.len() > hi {
                return fail(
                    line,
                    format!("{kind} accepts at most {hi} inputs, got {}", input_ix.len()),
                );
            }
            let prefix_nets: Vec<NetId> = prefix.iter().map(|&ix| nets[ix]).collect();
            let net = netlist.gate_with_drive(kind, &prefix_nets, drive, name);
            debug_assert_eq!(net.index(), out_ix);
            nets.push(net);
            if !appended.is_empty() {
                feedback.push((line, out_ix, appended.to_vec()));
            }
        } else if let Some(rest) = trimmed.strip_prefix("o ") {
            output_marks.push((line, parse_net_ref(line, rest)?));
        } else {
            return fail(line, format!("unknown directive '{trimmed}'"));
        }
    }
    if !header_seen {
        return fail(1, format!("missing '{TEXT_HEADER}' header"));
    }
    for (line, target, appended) in feedback {
        for ix in appended {
            if ix >= nets.len() {
                return fail(line, format!("feedback reference n{ix} is out of range"));
            }
            netlist.connect_feedback(nets[target], nets[ix]);
        }
    }
    for (line, ix) in output_marks {
        if ix >= nets.len() {
            return fail(line, format!("output reference n{ix} is out of range"));
        }
        netlist.mark_output(nets[ix]);
    }
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualrail::{completion_detector, DualRail};
    use crate::graph::tests::late_reader_fixture;

    /// A small circuit exercising every directive: inputs, a feedback
    /// arc, non-unit drive, and output marks.
    fn handshake_fixture() -> Netlist {
        let mut n = Netlist::new();
        let req = n.input("req");
        let c = n.gate(GateKind::CElement, &[req, req], "sync");
        let nack = n.gate_with_drive(GateKind::Inv, &[c], 2.5, "nack");
        n.connect_feedback(c, nack);
        n.mark_output(c);
        n.mark_output(nack);
        n
    }

    #[test]
    fn format_is_pinned() {
        let text = to_text(&handshake_fixture());
        assert_eq!(
            text,
            "emcnet 1\n\
             g INPUT 1 - req\n\
             g C 1 n0,n0,n2 sync\n\
             g INV 2.5 n1 nack\n\
             o n1\n\
             o n2\n"
        );
    }

    #[test]
    fn round_trip_is_byte_stable_and_structure_preserving() {
        for original in [handshake_fixture(), late_reader_fixture()] {
            let text = to_text(&original);
            let imported = from_text(&text).unwrap();
            assert_eq!(to_text(&imported), text);
            assert_eq!(imported.gate_count(), original.gate_count());
            assert_eq!(imported.outputs().len(), original.outputs().len());
            for (id, g) in original.iter_gates() {
                let h = imported.gate_ref(id);
                assert_eq!(h.kind(), g.kind());
                assert_eq!(h.inputs(), g.inputs());
                assert_eq!(h.output(), g.output());
                assert_eq!(h.drive(), g.drive());
                assert_eq!(imported.net_name(h.output()), original.net_name(g.output()));
            }
            for net in original.iter_nets() {
                assert_eq!(imported.fanout(net), original.fanout(net), "{text}");
                assert_eq!(
                    imported.fanout_load_units(net).to_bits(),
                    original.fanout_load_units(net).to_bits(),
                    "{text}"
                );
            }
            assert_eq!(imported.outputs(), original.outputs());
        }
    }

    #[test]
    fn dual_rail_completion_round_trips() {
        let mut n = Netlist::new();
        let bits: Vec<DualRail> = (0..5)
            .map(|i| DualRail::input(&mut n, &format!("w{i}")))
            .collect();
        let done = completion_detector(&mut n, &bits, "cd");
        n.mark_output(done);
        assert!(n.validate().is_empty());
        let text = to_text(&n);
        let imported = from_text(&text).unwrap();
        assert!(imported.validate().is_empty());
        assert_eq!(to_text(&imported), text);
        assert_eq!(imported.kind_histogram(), n.kind_histogram());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# corpus fixture\n\nemcnet 1\n# a gate\ng INPUT 1 - a\no n0\n";
        let n = from_text(text).unwrap();
        assert_eq!(n.gate_count(), 1);
        assert_eq!(n.outputs().len(), 1);
    }

    #[test]
    fn name_may_contain_spaces() {
        let mut n = Netlist::new();
        n.input("a net with spaces");
        let text = to_text(&n);
        let imported = from_text(&text).unwrap();
        assert_eq!(
            imported.net_name(imported.iter_nets().next().unwrap()),
            "a net with spaces"
        );
        assert_eq!(to_text(&imported), text);
    }

    #[test]
    fn rejects_malformed_input() {
        let cases = [
            ("", "missing"),
            ("emcnet 2\n", "expected header"),
            ("emcnet 1\nz wat\n", "unknown directive"),
            ("emcnet 1\ng FROB 1 - x\n", "unknown gate kind"),
            ("emcnet 1\ng INV 1 q0 x\n", "expected net reference"),
            ("emcnet 1\ng INV 0 n0 x\n", "drive must be positive"),
            ("emcnet 1\ng INV nope n0 x\n", "invalid drive"),
            ("emcnet 1\ng INPUT 1 - a\ng C 1 n0 c\n", "at least 2"),
            ("emcnet 1\ng INPUT 1 - a\ng TGL 1 n0,n0 t\n", "at most 1"),
            ("emcnet 1\ng INPUT 1 - a\no n7\n", "out of range"),
            (
                "emcnet 1\ng INPUT 1 - a\ng C 1 n0,n0,n9 c\n",
                "out of range",
            ),
            ("emcnet 1\ng INV 1\n", "gate line needs"),
        ];
        for (text, needle) in cases {
            let err = from_text(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "input {text:?} → {err} (wanted '{needle}')"
            );
        }
    }

    #[test]
    #[should_panic(expected = "surgically rewired")]
    fn export_rejects_surgery() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.gate(GateKind::Inv, &[a], "y");
        let z = n.gate(GateKind::Buf, &[a], "z");
        n.rewire_output(n.driver_of(z).unwrap(), y);
        let _ = to_text(&n);
    }
}
