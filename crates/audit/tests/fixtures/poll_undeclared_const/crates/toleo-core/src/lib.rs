//! Known-bad fixture: a loop chunked by a poll-named *constant* that no
//! polls row declares. The undeclared-loop check must compare the name
//! case-insensitively, or an upper-case chunker — which is what a
//! constant is — escapes it and the loop goes unaudited.

pub const KILL_POLL_OPS: usize = 64;

pub fn drain(queue: &[u64]) {
    for chunk in queue.chunks(KILL_POLL_OPS) {
        let _ = chunk;
    }
}
