/* superc.h — C bindings for the SuperC reproduction's embeddable parse
 * driver (configuration-preserving preprocessing + Fork-Merge LR
 * parsing of all of C; Gazzillo & Grimm, PLDI 2012).
 *
 * Link against the superc_capi cdylib (-lsuperc_capi).
 *
 * Model: a driver is a long-running session. Create one, stage files
 * into its virtual tree (or install a resolver callback), and alternate
 * EDIT GENERATIONS with parse/lint requests:
 *
 *   superc_driver *d = superc_driver_new(0);     // generation 1 is open
 *   superc_driver_set_file(d, "a.c", "int a;\n");
 *   superc_driver_end_generation(d);             // commit before requests
 *   char *json = superc_lint(d, units, 1, "json", NULL, NULL);
 *   ...
 *   superc_string_free(json);
 *   superc_driver_free(d);
 *
 * Between requests, batch edits with begin/end_generation; the driver's
 * unit memo then replays every unit whose include closure (the files it
 * read AND the include-probe paths that failed) is untouched, and
 * recomputes the rest. Requests while a generation is open fail.
 *
 * Output contract: superc_parse/superc_lint return the EXACT bytes a
 * fresh one-shot `superc` / `superc lint --format <f>` run would print
 * over the same tree (stdout as the return value, stderr via out-param),
 * for one unit as for many: the CLI prints a single file through the
 * same corpus renderer, every warning and condition included.
 *
 * Error contract: failing calls return -1 or NULL; superc_last_error()
 * returns the newest message. No call unwinds or aborts on internal
 * panics — they are caught at this boundary and reported the same way.
 *
 * Memory contract: strings passed in are copied before the call
 * returns. Strings returned (results and *stderr_out) are owned by the
 * caller and must be released with superc_string_free(). The pointer
 * from superc_last_error() is borrowed — valid until the next call on
 * the same driver; do not free it.
 *
 * Threading contract: a driver handle may be used from one thread at a
 * time. A resolver callback, however, is invoked from the driver's
 * worker threads (possibly several at once) and must be thread-safe
 * together with its userdata.
 */
#ifndef SUPERC_H
#define SUPERC_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Opaque driver handle. */
typedef struct superc_driver superc_driver;

/* Resolver callback: return malloc'd (or otherwise owned) contents of
 * `path`, or NULL when absent. The library copies the string and then
 * passes it to the paired superc_free_fn (when non-NULL). Must be
 * thread-safe. */
typedef char *(*superc_resolve_fn)(void *userdata, const char *path);
typedef void (*superc_free_fn)(void *userdata, char *contents);

/* Creates a driver with `jobs` pooled worker threads (0 = available
 * parallelism) and the default include search path ("include"). The
 * first edit generation is already open so the tree can be populated;
 * call superc_driver_end_generation before the first request.
 * Returns NULL on failure. */
superc_driver *superc_driver_new(unsigned jobs);

/* As superc_driver_new, with explicit include search directories. */
superc_driver *superc_driver_new_with_includes(unsigned jobs,
                                               const char *const *dirs,
                                               size_t n_dirs);

/* Destroys a driver and joins its worker pool. NULL is a no-op. */
void superc_driver_free(superc_driver *d);

/* Installs the resolver serving reads the staged overlay misses.
 * Returns 0, or -1 (see superc_last_error). */
int superc_driver_set_resolver(superc_driver *d, superc_resolve_fn resolve,
                               superc_free_fn free_fn, void *userdata);

/* Opens / commits an edit generation. Return the generation number,
 * or -1 on protocol misuse (double open, close without open). */
int64_t superc_driver_begin_generation(superc_driver *d);
int64_t superc_driver_end_generation(superc_driver *d);

/* Stages a file / removes a path inside the open generation. A removed
 * path reads as absent even if the resolver would produce it.
 * Return 0, or -1. */
int superc_driver_set_file(superc_driver *d, const char *path,
                           const char *contents);
int superc_driver_remove_file(superc_driver *d, const char *path);

/* Parses `n_units` compilation units. Returns the stdout bytes of the
 * equivalent one-shot CLI run (caller frees with superc_string_free),
 * or NULL on error. When non-NULL, *stderr_out receives the stderr
 * bytes (caller frees) and *failed_out whether the CLI would exit
 * nonzero. */
char *superc_parse(superc_driver *d, const char *const *units,
                   size_t n_units, char **stderr_out, int *failed_out);

/* Lints `n_units` units; `format` is "text", "json", or "sarif". The
 * returned stdout bytes are byte-identical to
 * `superc lint --format <format> <units...>` over the same tree. */
char *superc_lint(superc_driver *d, const char *const *units, size_t n_units,
                  const char *format, char **stderr_out, int *failed_out);

/* Newest error message, or NULL. Borrowed pointer — do not free. */
const char *superc_last_error(superc_driver *d);

/* Releases a string this library returned. NULL is a no-op. */
void superc_string_free(char *s);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* SUPERC_H */
