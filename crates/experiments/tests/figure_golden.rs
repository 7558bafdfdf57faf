//! Golden pins for the rendered figures: the FNV-1a of each deterministic
//! figure binary's stdout and of the CSV it writes, at a tiny instance
//! count with `--utilization` on. These freeze the bytes a reader sees —
//! panel order, captions, table layout, bar charts, the per-cell
//! utilization appendix and every CSV row — so a refactor of the figure
//! harness that shifts one character fails here even when every shape
//! test still passes. The binaries are driven as a user runs them, so
//! the pins hold whatever the library's internal shape.
//!
//! `--instrument` is left off: its lines carry wall-clock latencies.
//! Without it `fig_stream`'s output is deterministic too (it ignores
//! `--utilization`), for any worker count; its pin is the golden for
//! the session path: Poisson arrivals, per-arrival sampling and MQB's
//! flat picks. Values are recorded under the offline rand shim's
//! streams (crates/compat/rand); an intentional change to a figure's
//! output re-pins them from the hashes the failing assertion prints, and
//! says why in the commit.

use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs the figure binary `bin` (which writes `<name>.csv`) at
/// `instances` with `--utilization` into a fresh CSV directory, and checks
/// the FNV-1a of its stdout and of the CSV against `golden`.
fn check(bin: &str, name: &str, instances: usize, golden: (u64, u64)) {
    let dir = std::env::temp_dir().join(format!("fhs-figgold-{name}-{}", std::process::id()));
    let out = Command::new(bin)
        .args(["--instances", &instances.to_string()])
        .args(["--seed", "24301", "--workers", "2", "--utilization"])
        .arg("--csv-dir")
        .arg(&dir)
        .output()
        .expect("figure binary runs");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).expect("csv written");
    std::fs::remove_dir_all(&dir).ok();
    let got = (fnv1a(text.as_bytes()), fnv1a(csv.as_bytes()));
    assert_eq!(
        got, golden,
        "{name}: output changed, (stdout, CSV) hashes ({:#018x}, {:#018x}):\n{text}\n{csv}",
        got.0, got.1
    );
}

#[test]
fn fig4_bytes_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_fig4"),
        "fig4",
        3,
        (0x06d80823b8340f07, 0xd1e0200a0fd8a927),
    );
}

#[test]
fn fig5_bytes_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_fig5"),
        "fig5",
        2,
        (0x5ec6074d34a66ebf, 0x46c11acdaabeb0ba),
    );
}

#[test]
fn fig6_bytes_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_fig6"),
        "fig6",
        3,
        (0xc021e86933c02f70, 0x70cd533b6f6a39c1),
    );
}

#[test]
fn fig7_bytes_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_fig7"),
        "fig7",
        3,
        (0xf223f8af4f0b283a, 0x7010099c1c0a111a),
    );
}

#[test]
fn fig8_bytes_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_fig8"),
        "fig8",
        3,
        (0x8c5a014f17097cd5, 0x76e99af42fe5096a),
    );
}

#[test]
fn fig_util_bytes_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_fig_util"),
        "fig_util",
        3,
        (0x5b8736da16cb0736, 0x9b695857cb10dec2),
    );
}

#[test]
fn flex_binding_bytes_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_flex_binding"),
        "flex_binding",
        3,
        (0x5b9f05539e46a3bf, 0x715abb4fca56f93d),
    );
}

#[test]
fn lower_bound_bytes_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_lower_bound"),
        "lower_bound",
        3,
        (0x571772ccb6187d3c, 0x848127bd534ec052),
    );
}

#[test]
fn fig_stream_bytes_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_fig_stream"),
        "fig_stream",
        8,
        (0x3ced439b2b00421c, 0x2ac6da6b746e959e),
    );
}
