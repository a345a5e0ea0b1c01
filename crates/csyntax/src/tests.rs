use super::*;
use superc_cond::{CondBackend, CondCtx};
use superc_cpp::{CompilationUnit, MemFs, PpOptions, Preprocessor, Profile};
use superc_fmlr::{ParseResult, ParserConfig, SemVal};

fn preprocess(files: &[(&str, &str)]) -> (CompilationUnit, CondCtx) {
    let mut fs = MemFs::new();
    for (p, c) in files {
        fs.add(p, c);
    }
    let ctx = CondCtx::new(CondBackend::Bdd);
    let opts = PpOptions {
        profile: Profile::bare(),
        ..PpOptions::default()
    };
    let mut pp = Preprocessor::new(ctx.clone(), opts, fs);
    (pp.preprocess("main.c").expect("preprocess"), ctx)
}

fn parse(src: &str) -> ParseResult {
    let (unit, ctx) = preprocess(&[("main.c", src)]);
    parse_unit(&unit, &ctx, ParserConfig::full())
}

fn assert_parses(src: &str) -> ParseResult {
    let r = parse(src);
    assert!(
        r.errors.is_empty(),
        "errors for {src:?}: {:?}",
        r.errors.iter().map(|e| format!("{e}")).collect::<Vec<_>>()
    );
    assert!(
        r.accepted.as_ref().expect("accepted").is_true(),
        "partial accept for {src:?}"
    );
    r
}

// ---------------------------------------------------------------------
// Plain C
// ---------------------------------------------------------------------

#[test]
fn declarations_and_functions() {
    assert_parses("int x;\n");
    assert_parses("static const unsigned long *p = 0;\n");
    assert_parses("int add(int a, int b) { return a + b; }\n");
    assert_parses("void noop(void) { }\n");
    assert_parses("int main(int argc, char **argv) { return argc; }\n");
    assert_parses("extern int printf(const char *fmt, ...);\n");
    assert_parses("int (*fp)(int, char *);\n");
    assert_parses("double values[10];\nchar grid[3][4];\n");
}

#[test]
fn expressions_cover_precedence_tower() {
    assert_parses(
        "int f(int a, int b) {\n  int c = a + b * 2 - (a << 1) % 3;\n  c |= a & ~b ^ (a | b);\n  c = a < b ? a : b;\n  c = a ?: b;\n  c += a == b != (a >= b);\n  return !c && a || b;\n}\n",
    );
    assert_parses("int g(void) { int x = 0; x++; --x; return sizeof x + sizeof(int); }\n");
    assert_parses("int h(int *p) { return p[1] + *p + (&p)[0][0]; }\n");
}

#[test]
fn control_flow_statements() {
    assert_parses(
        "int f(int n) {\n  int s = 0;\n  for (int i = 0; i < n; i++) s += i;\n  while (n > 0) n--;\n  do { s--; } while (s > 0);\n  switch (n) {\n  case 0: return 1;\n  case 1 ... 5: return 2;\n  default: break;\n  }\n  if (s) return s; else return -s;\n  goto out;\nout:\n  return 0;\n}\n",
    );
}

#[test]
fn structs_unions_enums() {
    assert_parses(
        "struct point { int x, y; };\nunion u { int i; float f; };\nenum color { RED, GREEN = 2, BLUE, };\nstruct point origin = { 0, 0 };\n",
    );
    assert_parses("struct list { struct list *next; int data : 4; unsigned : 2; };\n");
    assert_parses("struct outer { struct { int a; }; union { int b; float c; }; };\n");
    assert_parses("enum color nested(enum color c) { return c; }\n");
}

#[test]
fn typedefs_drive_reclassification() {
    assert_parses("typedef int myint;\nmyint x = 0;\n");
    assert_parses("typedef struct node { struct node *next; } node_t;\nnode_t *head;\n");
    // The classic ambiguity: `T * p;` must be a declaration when T is a
    // typedef, an expression statement otherwise.
    let r = assert_parses("typedef int T;\nvoid f(void) { T * p; }\n");
    let mut saw_decl = false;
    r.ast.expect("ast").visit(&mut |n, _| {
        if &*n.kind == "Declaration" {
            saw_decl = true;
        }
    });
    assert!(saw_decl, "T * p should parse as a declaration");
    // Without the typedef it is a multiplication.
    let r = assert_parses("void f(int T, int p) { T * p; }\n");
    let mut saw_expr_stmt = false;
    r.ast.expect("ast").visit(&mut |n, _| {
        if &*n.kind == "ExpressionStatement" {
            saw_expr_stmt = true;
        }
    });
    assert!(saw_expr_stmt, "T * p should parse as an expression");
}

#[test]
fn typedef_in_casts_and_sizeof() {
    assert_parses(
        "typedef unsigned long size_tt;\nint f(void) { return (size_tt)4 + sizeof(size_tt); }\n",
    );
    assert_parses("typedef int T;\nT (*get(void))(T) { return 0; }\n");
}

#[test]
fn typedef_names_in_member_positions() {
    // A typedef name used as a member or label must still parse.
    assert_parses("typedef int T;\nstruct s { int T; };\nint f(struct s *p) { return p->T; }\n");
}

#[test]
fn parameters_shadow_typedefs() {
    // `T` is a typedef at file scope but an object parameter in `f`.
    assert_parses("typedef int T;\nvoid f(int T) { T = 1; }\n");
}

#[test]
fn initializers_and_designators() {
    assert_parses("int a[] = { 1, 2, 3, };\n");
    assert_parses("struct p { int x, y; } q = { .x = 1, .y = 2 };\n");
    assert_parses("int m[4] = { [0] = 1, [2] = 3 };\n");
    assert_parses("int r[] = { [0 ... 3] = 7 };\n");
    assert_parses("struct n { int a[2]; } v = { { 1, 2 } };\n");
}

#[test]
fn gcc_extensions() {
    assert_parses("int x = ({ int t = 1; t + 1; });\n"); // statement exprs
    assert_parses("typeof(1 + 1) y = 2;\ttypeof(int) z = 3;\n");
    assert_parses("static int used __attribute__((unused)) = 0;\n");
    assert_parses("struct packed { int v; } __attribute__((packed, aligned(4))) *pp;\n");
    assert_parses("int aligned_v __attribute__((aligned(8))) = 0;\n");
    assert_parses("void f(void) { __label__ retry; retry: f(); goto retry; }\n");
    assert_parses("void g(void *p) { goto *p; }\n");
    assert_parses("void *h(void) { return &&out; out: return 0; }\n");
    assert_parses("__extension__ typedef unsigned long long u64;\nu64 v;\n");
    assert_parses("int q(void) { return __builtin_offsetof(struct { int a; int b; }, b); }\n");
    assert_parses(
        "typedef __builtin_va_list_substitute va;\n"
            .replace("__builtin_va_list_substitute", "int")
            .as_str(),
    );
    assert_parses("struct s2 { int arr[0]; };\n"); // zero-length arrays
}

#[test]
fn inline_assembly() {
    assert_parses("void f(void) { asm(\"nop\"); }\n");
    assert_parses(
        "int g(int x) { asm volatile(\"add %0, %1\" : \"=r\"(x) : \"r\"(x) : \"memory\"); return x; }\n",
    );
    assert_parses("long rd(void) { long v; asm(\"rd %0\" : \"=r\"(v) : ); return v; }\n");
    asm_register_spec();
}

fn asm_register_spec() {
    assert_parses("register long sp asm(\"rsp\");\n");
}

#[test]
fn string_literal_concatenation() {
    assert_parses("const char *s = \"a\" \"b\" \"c\";\n");
}

#[test]
fn compound_literals() {
    assert_parses("struct p { int x, y; };\nvoid f(void) { struct p q = (struct p){ 1, 2 }; }\n");
}

// ---------------------------------------------------------------------
// Variability
// ---------------------------------------------------------------------

/// The paper's Figure 1, nearly verbatim.
const FIG1: &str = r#"
#include "major.h"

#define MOUSEDEV_MIX 31
#define MOUSEDEV_MINOR_BASE 32

static int mousedev_open(struct inode *inode, struct file *file)
{
  int i;

#ifdef CONFIG_INPUT_MOUSEDEV_PSAUX
  if (imajor(inode) == MISC_MAJOR)
    i = MOUSEDEV_MIX;
  else
#endif
  i = iminor(inode) - MOUSEDEV_MINOR_BASE;

  return 0;
}
"#;

#[test]
fn fig1_end_to_end() {
    let (unit, ctx) = preprocess(&[
        ("main.c", FIG1),
        (
            "major.h",
            "#ifndef MAJOR_H\n#define MAJOR_H\n#define MISC_MAJOR 10\n#endif\n",
        ),
    ]);
    let r = parse_unit(&unit, &ctx, ParserConfig::full());
    assert!(
        r.errors.is_empty(),
        "{:?}",
        r.errors.iter().map(|e| format!("{e}")).collect::<Vec<_>>()
    );
    assert!(r.accepted.expect("accepted").is_true());
    let ast = r.ast.expect("ast");
    assert_eq!(ast.choice_count(), 1, "one static choice node (Fig. 1c)");
    // Macros expanded before parsing.
    let with = unparse_config(&ast, &ctx, &|n| {
        Some(n == "defined(CONFIG_INPUT_MOUSEDEV_PSAUX)")
    });
    assert!(with.contains("== 10"), "{with}");
    assert!(with.contains("i = 31"), "{with}");
    let without = unparse_config(&ast, &ctx, &|_| Some(false));
    assert!(!without.contains("31"), "{without}");
    assert!(without.contains("- 32"), "{without}");
}

#[test]
fn conditional_typedef_forks_on_ambiguous_name() {
    // `T` is a typedef only when HAS_T is defined; `T * p;` is then a
    // declaration under HAS_T and a multiplication otherwise.
    let src = "\
#ifdef HAS_T
typedef int T;
#endif
int T_decl(void) {
  int T = 1, p = 2, r;
  r = T * p;
  return r;
}
";
    let r = assert_parses(src);
    let _ = r;
    // The genuinely ambiguous case: T only exists as a typedef in one
    // configuration and nothing else declares it.
    let src = "\
#ifdef HAS_T
typedef int T;
#endif
void f(void) { T * p; }
";
    let r = parse(src);
    // Under HAS_T: declaration. Without: expression over undeclared
    // names — still *syntactically* valid C (undeclared identifiers are a
    // semantic error), so both configurations parse.
    assert!(
        r.errors.is_empty(),
        "{:?}",
        r.errors.iter().map(|e| format!("{e}")).collect::<Vec<_>>()
    );
    assert!(r.accepted.expect("accepted").is_true());
    assert!(r.stats.reclassify_forks >= 1, "ambiguous name must fork");
}

#[test]
fn conditional_struct_members() {
    let src = "\
struct dev {
  int id;
#ifdef CONFIG_PM
  int power_state;
#endif
  void *priv;
};
";
    let r = assert_parses(src);
    assert_eq!(r.ast.expect("ast").choice_count(), 1);
}

#[test]
fn conditional_function_parameters() {
    let src = "\
int probe(
  int dev
#ifdef CONFIG_EXTRA
  , int flags
#endif
) { return dev; }
";
    let r = assert_parses(src);
    assert!(r.ast.expect("ast").choice_count() >= 1);
}

#[test]
fn fig6_initializer_real_c() {
    let mut src = String::from("static int (*check_part[])(struct parsed_partitions *) = {\n");
    for i in 0..18 {
        src.push_str(&format!(
            "#ifdef CONFIG_ACORN_PARTITION_{i}\n  adfspart_check_{i},\n#endif\n"
        ));
    }
    src.push_str("  ((void *)0)\n};\n");
    let r = assert_parses(&src);
    // The paper: 2^18 configurations, constant subparsers.
    assert!(
        r.stats.max_subparsers <= 4,
        "max = {}",
        r.stats.max_subparsers
    );
    assert_eq!(r.ast.expect("ast").choice_count(), 18);
}

#[test]
fn conditional_around_whole_function() {
    let src = "\
#ifdef CONFIG_SMP
int nr_cpus(void) { return 8; }
#else
int nr_cpus(void) { return 1; }
#endif
int query(void) { return nr_cpus(); }
";
    let r = assert_parses(src);
    let names = function_definitions(&r.ast.expect("ast"));
    let nr: Vec<_> = names.iter().filter(|(n, _)| &**n == "nr_cpus").collect();
    assert_eq!(nr.len(), 2);
    assert!(nr.iter().all(|(_, c)| c.is_some()));
}

#[test]
fn multiply_defined_macro_in_code() {
    let src = "\
#ifdef CONFIG_64BIT
#define BITS_PER_LONG 64
#else
#define BITS_PER_LONG 32
#endif
int nbits = BITS_PER_LONG;
unsigned long mask(void) { return (1UL << (BITS_PER_LONG - 1)); }
";
    let r = assert_parses(src);
    assert!(r.ast.expect("ast").choice_count() >= 2);
}

#[test]
fn declared_names_reports_conditions() {
    let src = "\
int always;
#ifdef CONFIG_X
int sometimes;
#endif
enum { CONST_A };
int f(void) { return 0; }
";
    let r = assert_parses(src);
    let names = declared_names(&r.ast.expect("ast"));
    let find = |n: &str| names.iter().find(|d| &*d.name == n).expect(n).clone();
    assert!(find("always").cond.is_none());
    assert!(find("sometimes").cond.is_some());
    assert_eq!(&*find("CONST_A").kind, "Enumerator");
    assert_eq!(&*find("f").kind, "FunctionDefinition");
}

#[test]
fn error_under_one_config_reports_condition() {
    let src = "\
#ifdef BROKEN
int x = ;
#else
int x = 1;
#endif
";
    let r = parse(src);
    assert!(r.ast.is_some());
    assert_eq!(r.errors.len(), 1);
    assert!(r.errors[0].cond.eval(|n| Some(n == "defined(BROKEN)")));
    let acc = r.accepted.expect("accepted");
    assert!(acc.eval(|_| Some(false)));
}

#[test]
fn all_optimization_levels_parse_real_c() {
    let src = "\
#ifdef A
int a;
#endif
#ifdef B
int b;
#endif
int f(void) { return 0; }
";
    for (name, cfg) in ParserConfig::levels() {
        let (unit, ctx) = preprocess(&[("main.c", src)]);
        let r = parse_unit(&unit, &ctx, cfg);
        assert!(
            r.errors.is_empty(),
            "{name}: {:?}",
            r.errors.iter().map(|e| format!("{e}")).collect::<Vec<_>>()
        );
        assert!(r.accepted.expect("accepted").is_true(), "{name}");
    }
}

#[test]
fn unparse_round_trips_each_config() {
    let src = "\
#ifdef CONFIG_A
int a = 1;
#else
int a = 2;
#endif
";
    let (unit, ctx) = preprocess(&[("main.c", src)]);
    let r = parse_unit(&unit, &ctx, ParserConfig::full());
    let ast = r.ast.expect("ast");
    let with = unparse_config(&ast, &ctx, &|n| Some(n == "defined(CONFIG_A)"));
    let without = unparse_config(&ast, &ctx, &|_| Some(false));
    assert_eq!(with, "int a = 1 ;");
    assert_eq!(without, "int a = 2 ;");
}

// ---------------------------------------------------------------------
// C zoo: gnarly-but-legal constructs a kernel-scale parser must accept
// ---------------------------------------------------------------------

#[test]
fn declarator_zoo() {
    // Arrays of pointers, pointers to arrays, function pointers.
    assert_parses("int *ap[10];\n");
    assert_parses("int (*pa)[10];\n");
    assert_parses("int (*fp)(void);\n");
    assert_parses("int (*fpa[4])(int, char *);\n");
    assert_parses("char *(*(*x)(int))(double);\n");
    assert_parses("void (*signal(int sig, void (*handler)(int)))(int);\n");
    assert_parses("int (*const cp)(void) = 0;\n");
    assert_parses("const char *const names[] = { \"a\", \"b\" };\n");
}

#[test]
fn qualifier_and_storage_combinations() {
    assert_parses("static volatile unsigned long jiffies;\n");
    assert_parses("extern const volatile int rtc_seconds;\n");
    assert_parses(
        "register int fast;\nauto_decl();\n"
            .replace("auto_decl();\n", "")
            .as_str(),
    );
    assert_parses("typedef const char *cstr;\ncstr s = 0;\n");
    assert_parses("static inline int f(void) { return 0; }\n");
    assert_parses("int restrict_use(int *restrict p, const int *restrict q) { return *p + *q; }\n");
}

#[test]
fn bitfields_and_unnamed_members() {
    assert_parses("struct flags { unsigned a : 1, b : 2, : 5, c : 1; };\n");
    assert_parses("struct padded { int x; int : 0; int y; };\n");
}

#[test]
fn switch_fallthrough_and_nested_loops() {
    assert_parses(
        "int f(int n) {\n  int s = 0;\n  for (;;) { if (s > n) break; s++; }\n  for (s = 0; ; s++) if (s == 3) break;\n  switch (n) { case 1: case 2: s = 9; default: ; }\n  return s;\n}\n",
    );
}

#[test]
fn comma_and_conditional_expressions() {
    assert_parses("int f(int a, int b) { int c = (a++, b++, a + b); return a ? b : c ? a : b; }\n");
    assert_parses("int g(int a) { return (a = 1, a += 2, a *= 3); }\n");
}

#[test]
fn sizeof_and_casts_zoo() {
    assert_parses("unsigned long s1 = sizeof(struct { int a; });\n");
    assert_parses("unsigned long s2 = sizeof(int[4]);\n");
    assert_parses("unsigned long s3 = sizeof(int (*)(void));\n");
    assert_parses("int f(void *p) { return *(int *)p + ((struct q { int v; } *)p)->v; }\n");
    assert_parses("long l = (long)(short)(char)7;\n");
}

#[test]
fn string_and_char_literal_zoo() {
    assert_parses("const char *s = \"tab\\t nl\\n quote\\\" hex\\x41\";\n");
    assert_parses("int c1 = 'a', c2 = '\\n', c3 = '\\0', c4 = '\\\\';\n");
    assert_parses("const char *wide_adjacent = \"one\" \"two\" \"three\";\n");
}

#[test]
fn function_prototypes_zoo() {
    assert_parses("int v(void);\nint e();\nint k(int, char *, ...);\n");
    assert_parses("void takes_fn(int cb(int), int (*cbp)(int));\n");
    assert_parses("int nested_proto(int (*outer)(int (*inner)(void)));\n");
}

#[test]
fn enum_zoo() {
    assert_parses("enum e1 { A };\nenum e2 { B = 1 << 4, C = B | 2, D = -1 };\n");
    assert_parses("enum fwd_use { X } v = X;\nenum fwd_use w;\n");
}

#[test]
fn struct_recursion_and_forward_refs() {
    assert_parses("struct self { struct self *next; };\n");
    assert_parses("struct a;\nstruct b { struct a *pa; };\nstruct a { struct b inner; };\n");
    assert_parses("union tagged { struct { int tag; }; int raw; };\n");
}

#[test]
fn goto_and_labels_zoo() {
    assert_parses(
        "int f(int n) {\nretry:\n  if (n-- > 0) goto retry;\n  goto done;\ndone:\n  return 0;\n}\n",
    );
}

#[test]
fn statement_expression_zoo() {
    assert_parses("#define sq(x) ({ int t = (x); t * t; })\nint y = sq(4);\n");
    assert_parses("int z = ({ 3; });\n");
}

#[test]
fn typeof_zoo() {
    assert_parses("int base;\ntypeof(base) same;\ntypeof(&base) ptr;\n");
    assert_parses("#define swap(a, b) do { typeof(a) t = (a); (a) = (b); (b) = t; } while (0)\nvoid f(void) { int x = 1, y = 2; swap(x, y); }\n");
}

#[test]
fn attribute_zoo() {
    assert_parses("__attribute__((noreturn)) void die(void);\n");
    assert_parses("int packed_struct_member;\nstruct s { int v __attribute__((aligned(16))); };\n");
    assert_parses("static int fmt(const char *f, ...) __attribute__((format(printf, 1, 2)));\n");
    assert_parses("int sect __attribute__((section(\".init.data\"), unused)) = 0;\n");
}

#[test]
fn conditional_inside_struct_and_enum_and_params() {
    let r = assert_parses(
        "struct dev {\n  int id;\n#ifdef CONFIG_PM\n  int power;\n#endif\n};\nenum s {\n  A,\n#ifdef CONFIG_X\n  B,\n#endif\n  C\n};\n",
    );
    assert_eq!(r.ast.expect("ast").choice_count(), 2);
}

#[test]
fn deeply_nested_conditionals_in_expressions() {
    let src = "\
int pick(void) {
  int v = 0;
#ifdef A
  v += 1;
#ifdef B
  v += 2;
#ifdef C
  v += 4;
#endif
#endif
#endif
  return v;
}
";
    let r = assert_parses(src);
    assert!(r.ast.expect("ast").choice_count() >= 1);
}

#[test]
fn conditional_else_chains_in_code() {
    let src = "\
#if defined(CONFIG_A)
int impl(void) { return 1; }
#elif defined(CONFIG_B)
int impl(void) { return 2; }
#elif defined(CONFIG_C)
int impl(void) { return 3; }
#else
int impl(void) { return 0; }
#endif
int call(void) { return impl(); }
";
    let r = assert_parses(src);
    let names = function_definitions(&r.ast.expect("ast"));
    assert_eq!(names.iter().filter(|(n, _)| &**n == "impl").count(), 4);
}

#[test]
fn do_while_zero_macro_idiom() {
    assert_parses(
        "#define LOCK_AND(x) do { lock(); (x); unlock(); } while (0)\nvoid f(void) { LOCK_AND(g()); }\n",
    );
}

#[test]
fn array_designators_with_enum_indices() {
    assert_parses(
        "enum idx { I0, I1, I2 };\nconst char *names[] = { [I0] = \"zero\", [I2] = \"two\" };\n",
    );
}

#[test]
fn old_style_empty_parameter_functions() {
    assert_parses("int legacy();\nint legacy_def() { return 0; }\n");
}

// ---------------------------------------------------------------------
// Declarator shapes (query::declared_names / first_declarator_tok)
// ---------------------------------------------------------------------

/// One declared name's `(name, specifiers, shape)`.
type Shape = (&'static str, &'static str, &'static str);

/// Pins the declarator shapes `declared_names` reports: `$` marks the
/// declared identifier, specifiers flatten in source order.
#[test]
fn declared_names_pin_declarator_shapes() {
    let cases: &[(&str, &[Shape])] = &[
        ("int x;\n", &[("x", "int", "$")]),
        (
            "static const unsigned long *p = 0;\n",
            &[("p", "static const unsigned long", "* $")],
        ),
        // Parenthesized declarator.
        ("int (y);\n", &[("y", "int", "( $ )")]),
        // Function pointer: nested parenthesized declarator.
        (
            "int (*fp)(int, char *);\n",
            &[("fp", "int", "( * $ ) ( int , char * )")],
        ),
        ("char grid[3][4];\n", &[("grid", "char", "$ [ 3 ] [ 4 ]")]),
        (
            "extern int printf(const char *fmt, ...);\n",
            &[("printf", "extern int", "$ ( const char * fmt , ... )")],
        ),
        // Init-declarator lists: one entry per declarator, initializers
        // excluded from the shape.
        (
            "int a = 1, *b, c[2];\n",
            &[
                ("a", "int", "$"),
                ("b", "int", "* $"),
                ("c", "int", "$ [ 2 ]"),
            ],
        ),
        ("int f(void) { return 0; }\n", &[("f", "int", "$ ( void )")]),
    ];
    for (src, expected) in cases {
        let r = assert_parses(src);
        let names = declared_names(&r.ast.expect("ast"));
        assert_eq!(names.len(), expected.len(), "count for {src:?}");
        for &(name, specs, shape) in *expected {
            let d = names
                .iter()
                .find(|d| &*d.name == name)
                .unwrap_or_else(|| panic!("{name} missing in {src:?}"));
            assert_eq!(d.specifiers, specs, "specifiers of {name} in {src:?}");
            assert_eq!(d.shape, shape, "shape of {name} in {src:?}");
            assert!(d.pos.is_some(), "pos of {name} in {src:?}");
        }
    }
}

/// A conditional inside a declarator: both alternatives are reported,
/// each under its own (absolute) presence condition.
#[test]
fn declared_names_descend_choices_with_conditions() {
    let src = "int\n#ifdef A\nx\n#else\ny\n#endif\n;\n";
    let r = assert_parses(src);
    let names = declared_names(&r.ast.expect("ast"));
    assert_eq!(names.len(), 2);
    let find = |n: &str| names.iter().find(|d| &*d.name == n).expect(n).clone();
    let under_a = |n: &str| Some(n == "defined(A)");
    assert!(find("x").cond.expect("cond of x").eval(under_a));
    assert!(!find("y").cond.expect("cond of y").eval(under_a));
    assert_eq!(find("x").shape, "$");
}

/// `first_declarator_tok` on struct declarators: named members and
/// bit-fields resolve to the member name; unnamed bit-fields (whose
/// first child is the `:` punctuator) declare nothing.
#[test]
fn first_declarator_tok_handles_bitfields() {
    fn find_struct_declarators<'a>(v: &'a SemVal, out: &mut Vec<&'a SemVal>) {
        match v {
            SemVal::Node(n) => {
                if &*n.kind == "StructDeclarator" {
                    out.push(v);
                }
                for ch in &n.children {
                    find_struct_declarators(ch, out);
                }
            }
            SemVal::Choice(alts) => {
                for (_, alt) in alts.iter() {
                    find_struct_declarators(alt, out);
                }
            }
            _ => {}
        }
    }
    let r = assert_parses("struct s { int : 4; int named : 2; int plain; };\n");
    let ast = r.ast.expect("ast");
    let mut decls = Vec::new();
    find_struct_declarators(&ast, &mut decls);
    let names: Vec<String> = decls
        .iter()
        .filter_map(|v| first_declarator_ident(v))
        .map(|n| n.to_string())
        .collect();
    assert_eq!(names, ["named", "plain"]);
}
