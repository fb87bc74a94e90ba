//! `corpus::quietly` silences only its own thread's panics and always
//! puts the process panic hook back.
//!
//! The check swaps the process-wide hook for a counting one, so it lives
//! in its own test binary: no other test can open a quiet section or set
//! a hook while it runs.

use spzip_bench::corpus::quietly;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;

/// Panics on a fresh thread and waits for it.
fn panic_elsewhere() {
    assert!(thread::spawn(|| panic!("loud")).join().is_err());
}

#[test]
fn quiet_sections_restore_the_hook_and_spare_other_threads() {
    let printed = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&printed);
    panic::set_hook(Box::new(move |_| {
        count.fetch_add(1, Ordering::SeqCst);
    }));
    let seen = || printed.load(Ordering::SeqCst);

    // A panic inside a section is silent; it still propagates, and the
    // hook is back afterwards.
    assert!(panic::catch_unwind(|| quietly(|| panic!("quiet"))).is_err());
    assert_eq!(seen(), 0);
    panic_elsewhere();
    assert_eq!(seen(), 1);

    // Overlap two sections so the one that opened first closes first:
    // A opens, B opens, A closes, B closes.
    let both_open = Arc::new(Barrier::new(2));
    let (a_closed_tx, a_closed_rx) = mpsc::channel();
    let a = {
        let both_open = Arc::clone(&both_open);
        thread::spawn(move || {
            quietly(|| {
                both_open.wait();
            });
            a_closed_tx.send(()).unwrap();
        })
    };
    let b = thread::spawn(move || {
        quietly(|| {
            both_open.wait();
            a_closed_rx.recv().unwrap();
            // B's section is still open: its own panic is silent, a
            // panic on another thread is not.
            assert!(panic::catch_unwind(|| panic!("quiet")).is_err());
            panic_elsewhere();
        })
    });
    a.join().unwrap();
    b.join().unwrap();
    assert_eq!(seen(), 2, "only the other thread's panic printed");

    // Both closed: the counting hook is in place again.
    panic_elsewhere();
    assert_eq!(seen(), 3);
    drop(panic::take_hook());
}
