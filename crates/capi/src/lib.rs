//! C bindings for the SuperC reproduction's embeddable parse driver.
//!
//! The API (declared in `include/superc.h`) wraps `superc::service::Driver`
//! behind an opaque handle: create a driver, populate its virtual file
//! tree (or plug in a resolver callback), alternate edit generations
//! with parse/lint requests, and read results as the exact bytes the
//! `superc` CLI would print — the byte-identity contract the C smoke
//! test in `scripts/verify.sh` checks with `diff`.
//!
//! Boundary rules, enforced here:
//!
//! * **No unwinding across the FFI.** Every entry point runs under
//!   `catch_unwind`; a panic becomes an error return plus a message on
//!   the last-error channel.
//! * **No shared allocator assumptions.** Strings returned to C are
//!   allocated by this library and must be released with
//!   [`superc_string_free`]; strings passed in are copied immediately.
//! * **Errors are pulled, not pushed**: failing calls return `-1` /
//!   `NULL`, and [`superc_last_error`] returns the newest message (a
//!   borrowed pointer, valid until the next call on the same driver).

// The public surface deliberately uses C-style snake_case type names so
// the Rust signatures read exactly like the header declarations.
#![allow(non_camel_case_types)]

use std::ffi::{c_char, c_int, c_uint, c_void, CStr, CString};
use std::panic::{catch_unwind, AssertUnwindSafe};

use superc::analyze::LintOptions;
use superc::cli::{LintFormat, Rendered};
use superc::service::Driver;
use superc::Options;

/// The opaque driver handle behind `superc_driver*`.
pub struct superc_driver {
    driver: Driver,
    /// Backing storage for the pointer `superc_last_error` returns.
    last_error: Option<CString>,
}
/// Resolver callback: given `userdata` and a path, return the file
/// contents as a NUL-terminated string this library will copy and then
/// hand to the paired free callback, or `NULL` when the path is absent.
/// Called from worker threads — must be thread-safe.
pub type superc_resolve_fn =
    unsafe extern "C" fn(userdata: *mut c_void, path: *const c_char) -> *mut c_char;

/// Frees a string a [`superc_resolve_fn`] returned (may be `NULL` if
/// the resolver's strings are static or never freed).
pub type superc_free_fn = unsafe extern "C" fn(userdata: *mut c_void, contents: *mut c_char);

/// A C resolver made `Send + Sync`: the header contract requires the
/// callback (and its `userdata`) to be callable from any thread.
struct CResolver {
    resolve: superc_resolve_fn,
    free: Option<superc_free_fn>,
    userdata: *mut c_void,
}
unsafe impl Send for CResolver {}
unsafe impl Sync for CResolver {}

impl CResolver {
    /// One resolver invocation: NULL → absent; otherwise copy the
    /// returned string and hand it back to the paired free callback.
    fn resolve_path(&self, path: &str) -> Result<Option<String>, String> {
        let cpath = CString::new(path).map_err(|_| "path contains NUL".to_string())?;
        // Safety: the header contract — `resolve` is thread-safe and
        // returns either NULL or a NUL-terminated string that stays
        // valid until the paired free callback runs.
        unsafe {
            let raw = (self.resolve)(self.userdata, cpath.as_ptr());
            if raw.is_null() {
                return Ok(None);
            }
            let contents = CStr::from_ptr(raw)
                .to_str()
                .map(str::to_string)
                .map_err(|_| "resolver returned non-UTF-8 contents".to_string());
            if let Some(free) = self.free {
                free(self.userdata, raw);
            }
            contents.map(Some)
        }
    }
}

/// Runs `body` with unwinding caught; `err` is the poisoned-state
/// return. Safe because the driver's internals are lock-guarded and a
/// panicking request leaves no half-written service state behind (the
/// pooled runner re-raises worker panics only inside the request).
fn guarded<T>(
    handle: &mut superc_driver,
    err: T,
    body: impl FnOnce(&mut Driver) -> Result<T, String>,
) -> T {
    let out = catch_unwind(AssertUnwindSafe(|| body(&mut handle.driver)));
    match out {
        Ok(Ok(v)) => v,
        Ok(Err(msg)) => {
            set_error(handle, msg);
            err
        }
        Err(panic) => {
            let msg = panic_message(&panic);
            handle.driver.fs().record_error(msg.clone());
            set_error(handle, msg);
            err
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let detail = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string());
    format!("panic at FFI boundary: {detail}")
}

fn set_error(handle: &mut superc_driver, msg: String) {
    handle.last_error = Some(CString::new(msg.replace('\0', "?")).expect("NUL-free"));
}

/// Copies a borrowed C string; `Err` on NULL or non-UTF-8.
unsafe fn in_str(ptr: *const c_char, what: &str) -> Result<String, String> {
    if ptr.is_null() {
        return Err(format!("{what} must not be NULL"));
    }
    CStr::from_ptr(ptr)
        .to_str()
        .map(str::to_string)
        .map_err(|_| format!("{what} must be UTF-8"))
}

/// Copies a `const char* const*` array of unit paths.
unsafe fn in_units(units: *const *const c_char, n_units: usize) -> Result<Vec<String>, String> {
    if n_units == 0 {
        return Ok(Vec::new());
    }
    if units.is_null() {
        return Err("units must not be NULL".to_string());
    }
    (0..n_units)
        .map(|i| in_str(*units.add(i), "unit path"))
        .collect()
}

/// Moves rendered output across the boundary: stdout becomes the return
/// value, stderr/failed land in the optional out-params.
unsafe fn out_rendered(
    r: Rendered,
    stderr_out: *mut *mut c_char,
    failed_out: *mut c_int,
) -> Result<*mut c_char, String> {
    if !stderr_out.is_null() {
        *stderr_out = CString::new(r.stderr.replace('\0', "?"))
            .expect("NUL-free")
            .into_raw();
    }
    if !failed_out.is_null() {
        *failed_out = r.failed as c_int;
    }
    Ok(CString::new(r.stdout.replace('\0', "?"))
        .expect("NUL-free")
        .into_raw())
}

/// Creates a driver with `jobs` pooled workers (`0` = available
/// parallelism) and the default include path (`include`). The first
/// edit generation is open: stage files, then call
/// `superc_driver_end_generation` before the first request.
#[no_mangle]
pub extern "C" fn superc_driver_new(jobs: c_uint) -> *mut superc_driver {
    catch_unwind(|| {
        Box::into_raw(Box::new(superc_driver {
            driver: Driver::new(Options::default(), jobs as usize),
            last_error: None,
        }))
    })
    .unwrap_or(std::ptr::null_mut())
}

/// [`superc_driver_new`] with explicit include search directories.
///
/// # Safety
///
/// `dirs` must point to `n_dirs` valid NUL-terminated UTF-8 strings.
#[no_mangle]
pub unsafe extern "C" fn superc_driver_new_with_includes(
    jobs: c_uint,
    dirs: *const *const c_char,
    n_dirs: usize,
) -> *mut superc_driver {
    let Ok(dirs) = in_units(dirs, n_dirs) else {
        return std::ptr::null_mut();
    };
    catch_unwind(|| {
        let mut options = Options::default();
        options.pp.include_paths = dirs;
        Box::into_raw(Box::new(superc_driver {
            driver: Driver::new(options, jobs as usize),
            last_error: None,
        }))
    })
    .unwrap_or(std::ptr::null_mut())
}

/// Destroys a driver (joins its worker pool). NULL is a no-op.
///
/// # Safety
///
/// `d` must be a pointer from `superc_driver_new*`, not yet freed.
#[no_mangle]
pub unsafe extern "C" fn superc_driver_free(d: *mut superc_driver) {
    if !d.is_null() {
        let _ = catch_unwind(AssertUnwindSafe(|| drop(Box::from_raw(d))));
    }
}

/// Installs a resolver callback serving file contents the staged
/// overlay does not have. Returns 0, or -1 on error.
///
/// # Safety
///
/// `d` must be a live driver. `resolve` (with `userdata`) must be
/// callable from any thread for the driver's lifetime; `free` may be
/// NULL if the returned strings need no release.
#[no_mangle]
pub unsafe extern "C" fn superc_driver_set_resolver(
    d: *mut superc_driver,
    resolve: superc_resolve_fn,
    free: Option<superc_free_fn>,
    userdata: *mut c_void,
) -> c_int {
    let Some(handle) = d.as_mut() else { return -1 };
    let resolver = CResolver {
        resolve,
        free,
        userdata,
    };
    guarded(handle, -1, move |driver| {
        driver.set_resolver(Box::new(move |path: &str| resolver.resolve_path(path)));
        Ok(0)
    })
}

/// Opens an edit generation. Returns the generation number, or -1.
///
/// # Safety
///
/// `d` must be a live driver.
#[no_mangle]
pub unsafe extern "C" fn superc_driver_begin_generation(d: *mut superc_driver) -> i64 {
    let Some(handle) = d.as_mut() else { return -1 };
    guarded(handle, -1, |driver| {
        driver.begin_generation().map(|g| g as i64)
    })
}

/// Commits the open edit generation. Returns its number, or -1.
///
/// # Safety
///
/// `d` must be a live driver.
#[no_mangle]
pub unsafe extern "C" fn superc_driver_end_generation(d: *mut superc_driver) -> i64 {
    let Some(handle) = d.as_mut() else { return -1 };
    guarded(handle, -1, |driver| {
        driver.end_generation().map(|g| g as i64)
    })
}

/// Stages a file into the open generation. Returns 0, or -1.
///
/// # Safety
///
/// `d` must be a live driver; `path`/`contents` NUL-terminated UTF-8.
#[no_mangle]
pub unsafe extern "C" fn superc_driver_set_file(
    d: *mut superc_driver,
    path: *const c_char,
    contents: *const c_char,
) -> c_int {
    let Some(handle) = d.as_mut() else { return -1 };
    let args = (|| Ok((in_str(path, "path")?, in_str(contents, "contents")?)))();
    match args {
        Err(msg) => {
            set_error(handle, msg);
            -1
        }
        Ok((path, contents)) => guarded(handle, -1, |driver| {
            driver.set_file(&path, &contents).map(|()| 0)
        }),
    }
}

/// Removes a file in the open generation (absent from now on, even if
/// the resolver would produce it). Returns 0, or -1.
///
/// # Safety
///
/// `d` must be a live driver; `path` NUL-terminated UTF-8.
#[no_mangle]
pub unsafe extern "C" fn superc_driver_remove_file(
    d: *mut superc_driver,
    path: *const c_char,
) -> c_int {
    let Some(handle) = d.as_mut() else { return -1 };
    match in_str(path, "path") {
        Err(msg) => {
            set_error(handle, msg);
            -1
        }
        Ok(path) => guarded(handle, -1, |driver| driver.remove_file(&path).map(|()| 0)),
    }
}

/// Parses `units`. Returns the bytes `superc <units...>` would print to
/// stdout (free with [`superc_string_free`]), or NULL on error. When
/// non-NULL, `*stderr_out` receives the stderr bytes and `*failed_out`
/// whether the run would exit nonzero.
///
/// # Safety
///
/// `d` must be a live driver; `units` must point to `n_units` valid
/// strings; `stderr_out`/`failed_out` may be NULL.
#[no_mangle]
pub unsafe extern "C" fn superc_parse(
    d: *mut superc_driver,
    units: *const *const c_char,
    n_units: usize,
    stderr_out: *mut *mut c_char,
    failed_out: *mut c_int,
) -> *mut c_char {
    let Some(handle) = d.as_mut() else {
        return std::ptr::null_mut();
    };
    match in_units(units, n_units) {
        Err(msg) => {
            set_error(handle, msg);
            std::ptr::null_mut()
        }
        Ok(units) => guarded(handle, std::ptr::null_mut(), |driver| {
            let rendered = driver.parse_rendered(&units, false, false)?;
            out_rendered(rendered, stderr_out, failed_out)
        }),
    }
}

/// Lints `units` in `format` (`"text"`, `"json"`, or `"sarif"`).
/// Returns the bytes `superc lint --format <format> <units...>` would
/// print to stdout — byte-identical to that one-shot CLI run over the
/// same tree. Free with [`superc_string_free`]; NULL on error.
///
/// # Safety
///
/// Same contract as [`superc_parse`]; `format` NUL-terminated UTF-8.
#[no_mangle]
pub unsafe extern "C" fn superc_lint(
    d: *mut superc_driver,
    units: *const *const c_char,
    n_units: usize,
    format: *const c_char,
    stderr_out: *mut *mut c_char,
    failed_out: *mut c_int,
) -> *mut c_char {
    let Some(handle) = d.as_mut() else {
        return std::ptr::null_mut();
    };
    let args = (|| {
        let units = in_units(units, n_units)?;
        let format = in_str(format, "format")?;
        let format =
            LintFormat::parse(&format).ok_or_else(|| format!("unknown format {format}"))?;
        Ok((units, format))
    })();
    match args {
        Err(msg) => {
            set_error(handle, msg);
            std::ptr::null_mut()
        }
        Ok((units, format)) => guarded(handle, std::ptr::null_mut(), |driver| {
            let rendered =
                driver.lint_rendered(&units, format, &[], &LintOptions::default(), false)?;
            out_rendered(rendered, stderr_out, failed_out)
        }),
    }
}

/// The newest error message, or NULL if none. Borrowed: valid until the
/// next call on the same driver; do not free.
///
/// # Safety
///
/// `d` must be a live driver.
#[no_mangle]
pub unsafe extern "C" fn superc_last_error(d: *mut superc_driver) -> *const c_char {
    let Some(handle) = d.as_mut() else {
        return std::ptr::null();
    };
    // Service-layer errors (resolver failures recorded on worker
    // threads) take precedence over the handle's cached message only
    // when newer; the channel keeps the newest, so just re-read it.
    if let Some(msg) = handle.driver.last_error() {
        set_error(handle, msg);
    }
    match &handle.last_error {
        Some(c) => c.as_ptr(),
        None => std::ptr::null(),
    }
}

/// Frees a string returned by [`superc_parse`]/[`superc_lint`] (or a
/// `stderr_out`). NULL is a no-op.
///
/// # Safety
///
/// `s` must come from this library and not be freed twice.
#[no_mangle]
pub unsafe extern "C" fn superc_string_free(s: *mut c_char) {
    if !s.is_null() {
        drop(CString::from_raw(s));
    }
}

#[cfg(test)]
mod boundary_tests {
    use super::*;

    fn cstr(s: &str) -> CString {
        CString::new(s).unwrap()
    }

    /// Drives the whole FFI surface from Rust the way the verify.sh C
    /// client does: create, stage, commit, lint, byte-compare.
    #[test]
    fn ffi_roundtrip_matches_the_facade() {
        unsafe {
            let d = superc_driver_new(2);
            assert!(!d.is_null());
            let path = cstr("a.c");
            let contents = cstr("#ifdef CONFIG_A\nint a;\n#endif\nint b = FOO;\n");
            assert_eq!(
                superc_driver_set_file(d, path.as_ptr(), contents.as_ptr()),
                0
            );
            assert_eq!(superc_driver_end_generation(d), 1);

            let unit = cstr("a.c");
            let units = [unit.as_ptr()];
            let format = cstr("json");
            let mut failed: c_int = -9;
            let out = superc_lint(
                d,
                units.as_ptr(),
                1,
                format.as_ptr(),
                std::ptr::null_mut(),
                &mut failed,
            );
            assert!(
                !out.is_null(),
                "lint failed: {:?}",
                CStr::from_ptr(superc_last_error(d))
            );
            let json = CStr::from_ptr(out).to_str().unwrap().to_string();
            assert!(json.starts_with("{\"diagnostics\":"), "got: {json}");
            assert_eq!(failed, 0);
            superc_string_free(out);

            // The Rust driver, given the same tree, renders the same bytes.
            let mut driver = Driver::new(Options::default(), 2);
            driver
                .set_file("a.c", "#ifdef CONFIG_A\nint a;\n#endif\nint b = FOO;\n")
                .unwrap();
            driver.end_generation().unwrap();
            let want = driver
                .lint_rendered(
                    &["a.c".to_string()],
                    LintFormat::Json,
                    &[],
                    &LintOptions::default(),
                    false,
                )
                .unwrap();
            assert_eq!(json, want.stdout);

            superc_driver_free(d);
        }
    }

    #[test]
    fn errors_return_codes_and_messages_not_panics() {
        unsafe {
            let d = superc_driver_new(1);
            // Double end: protocol error.
            assert_eq!(superc_driver_end_generation(d), 1);
            assert_eq!(superc_driver_end_generation(d), -1);
            let err = CStr::from_ptr(superc_last_error(d)).to_str().unwrap();
            assert!(err.contains("no generation is open"), "got: {err}");
            // NULL path: argument error, not a crash.
            assert_eq!(
                superc_driver_set_file(d, std::ptr::null(), std::ptr::null()),
                -1
            );
            // Unknown lint format.
            let unit = cstr("a.c");
            let units = [unit.as_ptr()];
            let bad = cstr("yaml");
            let out = superc_lint(
                d,
                units.as_ptr(),
                1,
                bad.as_ptr(),
                std::ptr::null_mut(),
                std::ptr::null_mut(),
            );
            assert!(out.is_null());
            superc_driver_free(d);
            superc_driver_free(std::ptr::null_mut()); // NULL no-op
            superc_string_free(std::ptr::null_mut());
        }
    }

    unsafe extern "C" fn test_resolver(userdata: *mut c_void, path: *const c_char) -> *mut c_char {
        let _ = userdata;
        let path = CStr::from_ptr(path).to_str().unwrap();
        if path == "include/gen.h" {
            CString::new("#define GEN 5\n").unwrap().into_raw()
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe extern "C" fn test_free(_userdata: *mut c_void, contents: *mut c_char) {
        drop(CString::from_raw(contents));
    }

    #[test]
    fn resolver_callback_serves_headers_across_threads() {
        unsafe {
            let d = superc_driver_new(2);
            assert_eq!(
                superc_driver_set_resolver(d, test_resolver, Some(test_free), std::ptr::null_mut()),
                0
            );
            let path = cstr("a.c");
            let contents = cstr("#include <gen.h>\nint a = GEN;\n");
            assert_eq!(
                superc_driver_set_file(d, path.as_ptr(), contents.as_ptr()),
                0
            );
            assert_eq!(superc_driver_end_generation(d), 1);
            let unit = cstr("a.c");
            let units = [unit.as_ptr()];
            let mut failed: c_int = -9;
            let mut errbytes: *mut c_char = std::ptr::null_mut();
            let out = superc_parse(d, units.as_ptr(), 1, &mut errbytes, &mut failed);
            assert!(!out.is_null());
            assert_eq!(failed, 0, "stderr: {:?}", CStr::from_ptr(errbytes));
            assert_eq!(CStr::from_ptr(errbytes).to_bytes(), b"");
            superc_string_free(out);
            superc_string_free(errbytes);
            superc_driver_free(d);
        }
    }
}
