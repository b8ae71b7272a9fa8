//! `mem::reset_peak_rss` in a test binary of its own: the peak is a
//! process-wide mark, so no other test may allocate concurrently.

use psketch_core::mem::{peak_rss_bytes, reset_peak_rss};
use std::hint::black_box;

const MIB: u64 = 1024 * 1024;

#[test]
fn reset_lowers_the_peak_after_a_dropped_buffer() {
    // Touch every page of a 64 MiB buffer so it is resident, then
    // free it: the peak keeps it, the current set does not.
    let buf = black_box(vec![1u8; 64 * MIB as usize]);
    drop(buf);
    let Some(before) = peak_rss_bytes() else {
        return; // No /proc: nothing to reset.
    };
    if !reset_peak_rss() {
        return; // The kernel does not support resetting the peak.
    }
    let after = peak_rss_bytes().expect("the peak was readable a moment ago");
    assert!(
        after + 32 * MIB <= before,
        "peak {before} B only fell to {after} B after the reset"
    );
}
