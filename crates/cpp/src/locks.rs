//! Lock guards that ignore poisoning, for every lock in this crate.
//!
//! No critical section under these locks can leave its value
//! half-updated: each is one map lookup, insert or removal, a counter
//! step, or a single assignment, and an artifact slot is filled only
//! once its lex has succeeded. A panic inside one, such as a resolver's
//! `Drop` running as `DriverFs::set_resolver` replaces it, poisons the
//! lock but leaves a value the next caller can use, so that caller takes
//! the guard and goes on instead of panicking in turn.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub(crate) fn read<T>(rw: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rw.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write<T>(rw: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rw.write().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
