//! Compiler/OS **profiles**: the built-in macro ground truth and dialect
//! policies of one compiler/OS target.
//!
//! The paper configures SuperC with gcc's built-ins (§2). That is one
//! point in a larger scenario space: the same unit means different things
//! under GCC/Clang/MSVC × Linux/macOS/Windows, because each target
//! predefines different macros (`__GNUC__`, `__clang__`, `_MSC_VER`,
//! `_WIN32`, `__APPLE__`, ...) and applies different dialect policies.
//! A [`Profile`] makes that target a first-class, named value:
//!
//! * the **built-in macro table** ([`Builtins`]) installed before every
//!   unit;
//! * the **undefined-identifier policy** ([`UndefIdentPolicy`]): what a
//!   free identifier does when a conditional expression forces it to a
//!   value — gcc silently folds it to `0`, MSVC's `/Wall` diagnoses it
//!   first (warning C4668);
//! * the **`#pragma once` quirk**: whether the preprocessor honors
//!   `#pragma once` as an include guard (all four shipped targets do;
//!   the bare test profile keeps the historical ignore-it behavior).
//!
//! The analysis layer runs a corpus under *several* profiles at once and
//! diffs the per-profile results into portability lints; see
//! `superc-analyze` and the `--profiles` flag on `superc lint`.

/// Compiler "ground truth" macros (§2: built-ins like `__STDC_VERSION__`).
///
/// A profile carries one of these; standalone construction is kept for
/// tests and custom embeddings.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Builtins {
    /// `(name, replacement-text)` pairs, object-like.
    pub defs: Vec<(String, String)>,
}

impl Default for Builtins {
    fn default() -> Self {
        Builtins::gcc_like()
    }
}

fn to_defs(defs: &[(&str, &str)]) -> Vec<(String, String)> {
    defs.iter()
        .map(|&(n, b)| (n.to_string(), b.to_string()))
        .collect()
}

/// Macros every hosted gcc/clang-style C99 target predefines, shared by
/// the gcc and clang profiles (MSVC predefines almost none of these).
const GNU_COMMON: &[(&str, &str)] = &[
    ("__STDC__", "1"),
    ("__STDC_HOSTED__", "1"),
    ("__SIZEOF_INT__", "4"),
    ("__SIZEOF_LONG__", "8"),
    ("__SIZEOF_POINTER__", "8"),
    ("__CHAR_BIT__", "8"),
    ("__INT_MAX__", "2147483647"),
    ("__LONG_MAX__", "9223372036854775807L"),
    ("__x86_64__", "1"),
];

impl Builtins {
    /// No built-ins at all (for tests).
    pub fn none() -> Self {
        Builtins { defs: Vec::new() }
    }

    /// A representative gcc-4-on-x86-Linux set (the paper's target).
    pub fn gcc_like() -> Self {
        let mut defs = to_defs(GNU_COMMON);
        defs.extend(to_defs(&[
            ("__STDC_VERSION__", "199901L"),
            ("__GNUC__", "4"),
            ("__GNUC_MINOR__", "5"),
            ("__GNUC_PATCHLEVEL__", "1"),
            ("__ELF__", "1"),
            ("__linux__", "1"),
            ("__unix__", "1"),
        ]));
        Builtins { defs }
    }

    /// A representative clang set (clang masquerades as gcc 4.2, speaks
    /// C11, and adds its own version macros). OS macros come from the
    /// profile constructors.
    fn clang_like() -> Self {
        let mut defs = to_defs(GNU_COMMON);
        defs.extend(to_defs(&[
            ("__STDC_VERSION__", "201112L"),
            ("__GNUC__", "4"),
            ("__GNUC_MINOR__", "2"),
            ("__GNUC_PATCHLEVEL__", "1"),
            ("__clang__", "1"),
            ("__clang_major__", "11"),
            ("__clang_minor__", "0"),
            ("__llvm__", "1"),
        ]));
        Builtins { defs }
    }

    /// A representative MSVC x64 set. MSVC predefines neither the
    /// `__GNUC__` family nor `__STDC_VERSION__` (pre-C11 mode), which is
    /// exactly the divergence the portability lints exist to surface.
    fn msvc_like() -> Self {
        Builtins {
            defs: to_defs(&[
                ("_MSC_VER", "1916"),
                ("_MSC_FULL_VER", "191627030"),
                ("_WIN32", "1"),
                ("_WIN64", "1"),
                ("_M_X64", "100"),
                ("_M_AMD64", "100"),
                ("_INTEGRAL_MAX_BITS", "64"),
            ]),
        }
    }
}

/// What a *free* identifier (never defined, never undefined) does when a
/// conditional expression forces it to a concrete value — which only
/// happens in single-configuration mode, where there is no condition
/// variable to fall back to. This is the policy `condexpr.rs` used to
/// hard-code as "gcc semantics" in two places; hoisting it here gives
/// each profile one seat at the single decision point
/// (`Preprocessor::fold_free_idents` / `note_folded_idents`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UndefIdentPolicy {
    /// gcc/clang default: the identifier silently evaluates to `0`.
    Zero,
    /// MSVC `/Wall` strictness (warning C4668): the identifier still
    /// evaluates to `0`, but every folded name is diagnosed.
    WarnThenZero,
}

/// A named compiler/OS target: built-in macros plus dialect policies.
///
/// # Examples
///
/// ```
/// use superc_cpp::Profile;
///
/// let p = Profile::named("msvc-windows").unwrap();
/// assert!(p.builtins.defs.iter().any(|(n, _)| n == "_WIN32"));
/// assert!(Profile::named("gcc-windows").is_none());
/// assert_eq!(Profile::default().name, "gcc-linux");
/// ```
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Profile {
    /// Stable profile name (`gcc-linux`, `msvc-windows`, ...), carried
    /// into portability diagnostics.
    pub name: String,
    /// Compiler family (`gcc`, `clang`, `msvc`, or `none`).
    pub compiler: String,
    /// Operating system (`linux`, `macos`, `windows`, or `none`).
    pub os: String,
    /// Built-in macros installed before every compilation unit.
    pub builtins: Builtins,
    /// Free-identifier evaluation policy in single-configuration mode.
    pub undef_ident: UndefIdentPolicy,
    /// Honor `#pragma once` as an include guard (configuration-aware:
    /// only configurations that already included the file skip it).
    pub pragma_once: bool,
}

impl Default for Profile {
    fn default() -> Self {
        Profile::gcc_linux()
    }
}

impl Profile {
    /// The paper's target: gcc 4 on x86-64 Linux.
    pub fn gcc_linux() -> Self {
        Profile {
            name: "gcc-linux".to_string(),
            compiler: "gcc".to_string(),
            os: "linux".to_string(),
            builtins: Builtins::gcc_like(),
            undef_ident: UndefIdentPolicy::Zero,
            pragma_once: true,
        }
    }

    /// clang on x86-64 Linux (gcc-compatible macros plus `__clang__`,
    /// C11 `__STDC_VERSION__`).
    pub fn clang_linux() -> Self {
        let mut builtins = Builtins::clang_like();
        builtins.defs.extend(to_defs(&[
            ("__ELF__", "1"),
            ("__linux__", "1"),
            ("__unix__", "1"),
        ]));
        Profile {
            name: "clang-linux".to_string(),
            compiler: "clang".to_string(),
            os: "linux".to_string(),
            builtins,
            undef_ident: UndefIdentPolicy::Zero,
            pragma_once: true,
        }
    }

    /// Apple clang on x86-64 macOS: `__APPLE__`/`__MACH__`, Mach-O (no
    /// `__ELF__`), and no `__linux__`/`__unix__`.
    pub fn clang_macos() -> Self {
        let mut builtins = Builtins::clang_like();
        builtins
            .defs
            .extend(to_defs(&[("__APPLE__", "1"), ("__MACH__", "1")]));
        Profile {
            name: "clang-macos".to_string(),
            compiler: "clang".to_string(),
            os: "macos".to_string(),
            builtins,
            undef_ident: UndefIdentPolicy::Zero,
            pragma_once: true,
        }
    }

    /// MSVC on x64 Windows, with `/Wall`-style strictness about
    /// undefined identifiers in `#if` expressions (C4668).
    pub fn msvc_windows() -> Self {
        Profile {
            name: "msvc-windows".to_string(),
            compiler: "msvc".to_string(),
            os: "windows".to_string(),
            builtins: Builtins::msvc_like(),
            undef_ident: UndefIdentPolicy::WarnThenZero,
            pragma_once: true,
        }
    }

    /// No built-ins, no quirks: the profile tests run under (it also
    /// preserves the historical ignore-`#pragma once` behavior).
    pub fn bare() -> Self {
        Profile {
            name: "bare".to_string(),
            compiler: "none".to_string(),
            os: "none".to_string(),
            builtins: Builtins::none(),
            undef_ident: UndefIdentPolicy::Zero,
            pragma_once: false,
        }
    }

    /// Looks up a shipped profile by name.
    pub fn named(name: &str) -> Option<Profile> {
        match name {
            "gcc-linux" => Some(Profile::gcc_linux()),
            "clang-linux" => Some(Profile::clang_linux()),
            "clang-macos" => Some(Profile::clang_macos()),
            "msvc-windows" => Some(Profile::msvc_windows()),
            "bare" => Some(Profile::bare()),
            _ => None,
        }
    }

    /// Every shipped profile name, in a stable order (for `--help` text
    /// and error messages).
    pub fn all_names() -> &'static [&'static str] {
        &[
            "gcc-linux",
            "clang-linux",
            "clang-macos",
            "msvc-windows",
            "bare",
        ]
    }

    /// Replaces the built-in table, keeping the dialect policies — for
    /// callers that used to construct a bare `Builtins` value.
    pub fn with_builtins(mut self, builtins: Builtins) -> Self {
        self.builtins = builtins;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_round_trips_every_shipped_profile() {
        for name in Profile::all_names() {
            let p = Profile::named(name).expect("shipped profile resolves");
            assert_eq!(&p.name, name);
        }
        assert_eq!(Profile::named("tcc-plan9"), None);
    }

    #[test]
    fn profiles_diverge_on_the_portability_axes() {
        let gcc = Profile::gcc_linux();
        let msvc = Profile::msvc_windows();
        let mac = Profile::clang_macos();
        let has = |p: &Profile, n: &str| p.builtins.defs.iter().any(|(name, _)| name == n);
        assert!(has(&gcc, "__GNUC__") && !has(&msvc, "__GNUC__"));
        assert!(has(&msvc, "_WIN32") && !has(&gcc, "_WIN32"));
        assert!(has(&mac, "__APPLE__") && !has(&gcc, "__APPLE__"));
        assert!(has(&gcc, "__STDC_VERSION__") && !has(&msvc, "__STDC_VERSION__"));
        assert_eq!(msvc.undef_ident, UndefIdentPolicy::WarnThenZero);
        assert_eq!(gcc.undef_ident, UndefIdentPolicy::Zero);
    }
}
