//! Agent stacks and the switch between them: the crate's unsafe code,
//! apart from the engine's three unsafe calls into it, whose soundness
//! rests on the token protocol (see their `SAFETY` comments).
//!
//! Every agent runs on a [`Stack`] of its own, mapped with `mmap`, on the
//! thread that drives its engine. A blocking call saves the callee-saved
//! registers on the running stack, stores the stack pointer in a *context*
//! slot and loads another context's stack pointer ([`switch`]): a handoff
//! costs a few dozen instructions instead of a kernel context switch.
//!
//! The switch is written for the x86_64 System V ABI on Linux. Porting to
//! another target means a new [`switch`] and trampoline for its calling
//! convention, and its `mmap` constants.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "sim-des switches agent stacks with x86_64 System V assembly on Linux; \
     port crates/des/src/coro.rs to this target"
);

use std::arch::naked_asm;
use std::ffi::{c_int, c_long, c_void};
use std::ptr::NonNull;

/// Usable bytes per agent stack: Rust's default thread stack. The mapping
/// reserves no memory up front (`MAP_NORESERVE`); only touched pages
/// become resident.
const STACK_BYTES: usize = 2 << 20;

/// The inaccessible page below every stack, so an overflow faults.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: c_long,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// MXCSR (low half) and x87 control word (bits 32..48) that a fresh stack
/// starts with: the power-on defaults a new thread also gets — round to
/// nearest, all floating-point exceptions masked.
const FP_DEFAULTS: usize = 0x1F80 | (0x037F << 32);

/// A context: where a suspended stack's stack pointer is saved. The
/// engine's driver keeps one in a plain `usize`; a [`Stack`] keeps its own
/// in its top word.
pub(crate) type Context = usize;

/// An agent's stack: [`STACK_BYTES`] above a `PROT_NONE` guard page,
/// unmapped on drop.
pub(crate) struct Stack {
    /// Start of the mapping, which begins with the guard page.
    base: NonNull<u8>,
}

// SAFETY: a stack is plain memory. Its engine only runs it on the thread
// that holds the engine lock and drives the run, never two at once.
unsafe impl Send for Stack {}

const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;

impl Stack {
    /// Map a stack that runs `f` when it is first switched to, with a clean
    /// frame chain. `f` returns the context to switch to for the last time;
    /// it is consumed, and the box holding it freed, before that switch,
    /// since a finished stack is never resumed or unwound. The stack must
    /// be switched to before it is dropped, or `f` leaks.
    ///
    /// # Safety
    ///
    /// `f` must return a context that [`switch`] may resume: one saved by a
    /// `switch` on a stack that is still mapped, or a fresh stack's.
    pub(crate) unsafe fn new<F>(f: F) -> Stack
    where
        F: FnOnce() -> *mut Context + Send + 'static,
    {
        // SAFETY: a fresh anonymous private mapping aliases nothing.
        let map = unsafe {
            mmap(
                std::ptr::null_mut(),
                MAP_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if map as isize == -1 {
            panic!(
                "failed to map an agent stack: {}",
                std::io::Error::last_os_error()
            );
        }
        // Owns the mapping from here on, so a failure below unmaps it.
        let stack = Stack {
            base: NonNull::new(map.cast()).expect("mmap returned null"),
        };
        // SAFETY: the guard page is the first page of our own mapping.
        if unsafe { mprotect(map, GUARD_BYTES, PROT_NONE) } != 0 {
            panic!(
                "failed to protect an agent stack's guard page: {}",
                std::io::Error::last_os_error()
            );
        }
        let arg = Box::into_raw(Box::new(f));
        let entry: unsafe extern "C" fn(*mut F) -> ! = run::<F>;
        // The first switch-in pops this frame as if `switch` had saved it:
        // the FP control words, r15..r12 (r13 = `arg`, r12 = `run::<F>`), rbx,
        // rbp = 0 (the end of the frame-pointer chain), and returns into
        // the trampoline with a zero return slot above it.
        let frame: [usize; 9] = [
            FP_DEFAULTS,
            0,
            0,
            arg as usize,
            entry as usize,
            0,
            0,
            trampoline as *const () as usize,
            0,
        ];
        // SAFETY: `top` is the 16-aligned end of the mapping; the context
        // slot and the frame fill its last ten words, all writable.
        unsafe {
            let top = map.cast::<usize>().add(MAP_BYTES / size_of::<usize>());
            let sp = top.sub(1 + frame.len());
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            stack.context().write(sp as usize);
        }
        stack
    }

    /// This stack's context slot (its top word): the stack pointer to
    /// resume it at, valid while it is suspended.
    pub(crate) fn context(&self) -> *mut Context {
        // SAFETY: the last word of the mapping is in bounds.
        unsafe {
            self.base
                .as_ptr()
                .add(MAP_BYTES - size_of::<usize>())
                .cast()
        }
    }

    /// Start of the mapping (its guard page).
    #[cfg(test)]
    fn base(&self) -> usize {
        self.base.as_ptr() as usize
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: we own the whole mapping, and nothing runs on a stack
        // that is being dropped.
        unsafe { munmap(self.base.as_ptr().cast(), MAP_BYTES) };
    }
}

/// Suspend the running code in context `from` and resume context `to`.
/// Returns when some later `switch` names `from` as its `to`.
///
/// # Safety
///
/// `to` must hold the stack pointer of a suspended context (saved by a
/// `switch` or laid out by [`Stack::new`]) whose stack is still mapped, and
/// `from` must stay writable until the switch completes. The resumed code
/// runs on the calling thread.
#[unsafe(naked)]
pub(crate) unsafe extern "sysv64" fn switch(from: *mut Context, to: *const Context) {
    naked_asm!(
        // Save the callee-saved registers and FP control words, in the
        // order `Stack::new` lays out a fresh frame.
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        // Restore the other context's and return into it.
        "mov rsp, [rsi]",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// The first function on a fresh stack: run `f`, free it, and switch to
/// the context it returns for good.
unsafe extern "C" fn run<F>(f: *mut F) -> !
where
    F: FnOnce() -> *mut Context,
{
    // SAFETY: `Stack::new` leaked this box for this call alone. It is freed
    // at the end of the statement: nothing after the final switch runs.
    let f = unsafe { *Box::from_raw(f) };
    let to = f();
    let mut finished: Context = 0;
    // SAFETY: `Stack::new`'s caller guarantees `to`; nothing resumes
    // `finished`.
    unsafe { switch(&raw mut finished, to) };
    unreachable!("a finished stack was resumed")
}

/// The bottom frame of every stack: calls `run(arg)` from r12/r13 with
/// the stack 16-byte aligned. Its unwind info marks the return address
/// undefined, so backtraces and unwinders stop here.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() -> ! {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r13",
        "call r12",
        "ud2",
        ".cfi_endproc",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both contexts of a round trip, shared with the stack's closure.
    struct Pair {
        main: Context,
        child: *mut Context,
        hits: u32,
    }

    #[test]
    fn switch_runs_a_stack_and_comes_back() {
        let pair = Box::into_raw(Box::new(Pair {
            main: 0,
            child: std::ptr::null_mut(),
            hits: 0,
        }));
        let addr = pair as usize;
        let bounce = move || {
            let pair = addr as *mut Pair;
            for _ in 0..3 {
                // SAFETY: the test keeps `pair` alive and runs on one thread;
                // `main` was saved by the switch that resumed us.
                unsafe {
                    (*pair).hits += 1;
                    switch((*pair).child, &raw const (*pair).main);
                }
            }
            // SAFETY: as above.
            unsafe { &raw mut (*pair).main }
        };
        // SAFETY: `bounce` returns the main context, which the last switch
        // below saves.
        let stack = unsafe { Stack::new(bounce) };
        // SAFETY: `pair` outlives every switch, and `stack` stays mapped.
        unsafe {
            (*pair).child = stack.context();
            for expect in 1..=3 {
                switch(&raw mut (*pair).main, stack.context());
                assert_eq!((*pair).hits, expect);
            }
            // The closure returns and the stack switches back for good.
            switch(&raw mut (*pair).main, stack.context());
            assert_eq!((*pair).hits, 3);
            drop(Box::from_raw(pair));
        }
    }

    #[test]
    fn guard_page_is_inaccessible() {
        // SAFETY: never switched to.
        let stack = unsafe { Stack::new(|| -> *mut Context { unreachable!() }) };
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        let guard = maps
            .lines()
            .find(|l| l.starts_with(&format!("{:x}-", stack.base())))
            .expect("the stack mapping is listed");
        let (range, perms) = guard.split_once(' ').unwrap();
        let (lo, hi) = range.split_once('-').unwrap();
        let len = usize::from_str_radix(hi, 16).unwrap() - usize::from_str_radix(lo, 16).unwrap();
        assert_eq!((len, &perms[..4]), (GUARD_BYTES, "---p"));
    }
}
