//! The static typing analysis both compiled back ends lower by.
//!
//! Every expression has a static type [`Ty`]. Where it is pinned at
//! compile time — `ITZ SRSLY A TROOF|NUMBR|NUMBAR` locals, NUMBR/NUMBAR
//! local arrays, shared cells and elements, literals, `ME`,
//! `MAH FRENZ`, `WHATEVR`/`WHATEVAR`, and loop counters the body never
//! assigns — the value is known to be one variant at run time, so the C
//! emitter stores it in a native `long long`/`double`/`int` and the VM
//! runs typed opcodes over it. Everything else (`IT`, untyped
//! variables, YARNs, function parameters and returns) is [`Ty::Boxed`]:
//! a dynamic value whose variant is only known at run time.
//!
//! The rules here are the single home of that analysis: the C emitter
//! (`lol-c-codegen`) and the bytecode compiler (`lol-vm`) both read
//! them, and neither keeps a copy.

use lol_ast::visit::{walk_lvalue, Visitor};
use lol_ast::{BinOp, Block, Decl, ExprKind, LValue, Lit, LolType, NaryOp, Symbol, UnOp, VarName};

/// The static type of an expression or of a variable's storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ty {
    /// Always a NUMBR (an `i64`).
    Int,
    /// Always a NUMBAR (an `f64`).
    Dbl,
    /// Always a TROOF.
    Bool,
    /// Known only at run time.
    Boxed,
}

impl Ty {
    /// A NUMBR or a NUMBAR.
    pub fn is_number(self) -> bool {
        matches!(self, Ty::Int | Ty::Dbl)
    }
}

/// The native type of a TROOF, NUMBR or NUMBAR value; `None` for NOOB
/// and YARN, which stay boxed.
fn native(ty: LolType) -> Option<Ty> {
    match ty {
        LolType::Troof => Some(Ty::Bool),
        LolType::Numbr => Some(Ty::Int),
        LolType::Numbar => Some(Ty::Dbl),
        LolType::Noob | LolType::Yarn => None,
    }
}

/// The type of `MAEK … A ty`.
pub fn cast(ty: LolType) -> Ty {
    native(ty).unwrap_or(Ty::Boxed)
}

/// The type a shared cell or element of declared type `ty` reads as.
/// Every symmetric word is a NUMBAR, a TROOF, or else a NUMBR.
pub fn cell(ty: LolType) -> Ty {
    match ty {
        LolType::Numbar => Ty::Dbl,
        LolType::Troof => Ty::Bool,
        _ => Ty::Int,
    }
}

/// The type of a literal.
pub fn lit(l: &Lit) -> Ty {
    match l {
        Lit::Numbr(_) => Ty::Int,
        Lit::Numbar(_) => Ty::Dbl,
        Lit::Troof(_) => Ty::Bool,
        Lit::Noob | Lit::Yarn(_) => Ty::Boxed,
    }
}

/// The type of a PE query or random draw: `ME`, `MAH FRENZ` and
/// `WHATEVR` are NUMBRs, `WHATEVAR` is a NUMBAR; `None` for every other
/// expression.
pub fn query(e: &ExprKind) -> Option<Ty> {
    match e {
        ExprKind::Me | ExprKind::MahFrenz | ExprKind::Whatevr => Some(Ty::Int),
        ExprKind::Whatevar => Some(Ty::Dbl),
        _ => None,
    }
}

/// The storage type of a local scalar declaration (`I HAS A`): native
/// when `SRSLY`-pinned to TROOF, NUMBR or NUMBAR (every store casts to
/// the pinned type), boxed otherwise.
pub fn local(d: &Decl) -> Ty {
    let pinned = if d.srsly { d.ty.and_then(native) } else { None };
    pinned.unwrap_or(Ty::Boxed)
}

/// The element type of a local array declaration: native for NUMBR and
/// NUMBAR elements, boxed for every other element type (TROOF
/// included).
pub fn local_array(d: &Decl) -> Ty {
    d.ty.and_then(native).filter(|t| *t != Ty::Bool).unwrap_or(Ty::Boxed)
}

/// The type of the counter of a loop (`UPPIN`/`NERFIN YR var`) with
/// this body: it starts at NUMBR 0 and steps by 1, so it stays a NUMBR
/// unless the body assigns it (then it may change type).
pub fn counter(body: &Block, var: Symbol) -> Ty {
    if assigns(body, var) {
        Ty::Boxed
    } else {
        Ty::Int
    }
}

/// Does `body` (at any depth) assign, read into or retype `sym` (`R`,
/// `GIMMEH`, `IS NOW A`)? A `SRS` target counts as a hit: it may name
/// anything.
fn assigns(body: &Block, sym: Symbol) -> bool {
    struct Finder {
        sym: Symbol,
        hit: bool,
    }
    impl Visitor for Finder {
        fn visit_lvalue(&mut self, lv: &LValue) {
            if let LValue::Var(vr) = lv {
                match &vr.name {
                    VarName::Named(id) => self.hit |= id.sym == self.sym,
                    VarName::Srs(_) => self.hit = true,
                }
            }
            walk_lvalue(self, lv);
        }
    }
    let mut f = Finder { sym, hit: false };
    f.visit_block(body);
    f.hit
}

/// The result type of a binary operator. Arithmetic over two numbers
/// (TROOFs count as NUMBR 0/1) is a NUMBAR if either side is one, else
/// a NUMBR; a boxed operand makes the result boxed. Comparisons and
/// logic always yield a TROOF.
pub fn bin(op: BinOp, a: Ty, b: Ty) -> Ty {
    use BinOp::*;
    match op {
        Sum | Diff | Produkt | Quoshunt | Mod | BiggrOf | SmallrOf => {
            if a == Ty::Boxed || b == Ty::Boxed {
                Ty::Boxed
            } else if a == Ty::Dbl || b == Ty::Dbl {
                Ty::Dbl
            } else {
                Ty::Int
            }
        }
        Bigger | Smallr | BothSaem | Diffrint | BothOf | EitherOf | WonOf => Ty::Bool,
    }
}

/// The domain `BOTH SAEM`/`DIFFRINT` compares two operands in: two
/// NUMBRs as integers, two TROOFs as truth values, any other pair of
/// numbers as NUMBARs (a NUMBR widens). `None` when the answer depends
/// on run-time types (a boxed operand, or a TROOF against a number,
/// which is never SAEM).
pub fn saem_domain(a: Ty, b: Ty) -> Option<Ty> {
    match (a, b) {
        (Ty::Int, Ty::Int) => Some(Ty::Int),
        (Ty::Bool, Ty::Bool) => Some(Ty::Bool),
        (Ty::Int | Ty::Dbl, Ty::Int | Ty::Dbl) => Some(Ty::Dbl),
        _ => None,
    }
}

/// The result type of a unary operator: `NOT` is a TROOF, `SQUAR OF`
/// keeps a number's type (a TROOF squares as a NUMBR), `UNSQUAR OF`
/// and `FLIP OF` are NUMBARs.
pub fn un(op: UnOp, a: Ty) -> Ty {
    match op {
        UnOp::Not => Ty::Bool,
        UnOp::Squar => match a {
            Ty::Boxed => Ty::Boxed,
            Ty::Dbl => Ty::Dbl,
            Ty::Int | Ty::Bool => Ty::Int,
        },
        UnOp::Unsquar | UnOp::Flip => Ty::Dbl,
    }
}

/// The result type of an n-ary operator.
pub fn nary(op: NaryOp) -> Ty {
    match op {
        NaryOp::Smoosh => Ty::Boxed,
        NaryOp::AllOf | NaryOp::AnyOf => Ty::Bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lol_ast::StmtKind;
    use lol_parser::parse;

    fn body(src: &str) -> Block {
        let src = format!("HAI 1.2\n{src}\nKTHXBYE");
        parse(&src).expect_program(&src).body
    }

    fn decl(src: &str) -> Decl {
        match body(src).remove(0).kind {
            StmtKind::Declare(d) => d,
            other => panic!("not a declaration: {other:?}"),
        }
    }

    #[test]
    fn local_declarations_pin_only_srsly_natives() {
        assert_eq!(local(&decl("I HAS A x ITZ SRSLY A NUMBR")), Ty::Int);
        assert_eq!(local(&decl("I HAS A x ITZ SRSLY A NUMBAR")), Ty::Dbl);
        assert_eq!(local(&decl("I HAS A x ITZ SRSLY A TROOF")), Ty::Bool);
        assert_eq!(local(&decl("I HAS A x ITZ SRSLY A YARN")), Ty::Boxed);
        assert_eq!(local(&decl("I HAS A x ITZ A NUMBR")), Ty::Boxed);
        assert_eq!(local(&decl("I HAS A x ITZ 3")), Ty::Boxed);
    }

    #[test]
    fn local_arrays_are_native_for_numbers_only() {
        let arr =
            |t: &str| local_array(&decl(&format!("I HAS A a ITZ SRSLY LOTZ A {t} AN THAR IZ 4")));
        assert_eq!(arr("NUMBRS"), Ty::Int);
        assert_eq!(arr("NUMBARS"), Ty::Dbl);
        assert_eq!(arr("TROOFS"), Ty::Boxed);
        assert_eq!(arr("YARNS"), Ty::Boxed);
    }

    #[test]
    fn counters_stay_numbr_unless_assigned() {
        let lp = |src: &str| match body(src).remove(0).kind {
            StmtKind::Loop(lp) => counter(&lp.body, lp.update.unwrap().1.sym),
            other => panic!("not a loop: {other:?}"),
        };
        assert_eq!(
            lp("IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\nVISIBLE i\nIM OUTTA YR l"),
            Ty::Int
        );
        for body in [
            "i R 2",
            "i IS NOW A NUMBAR",
            "GIMMEH i",
            "BOTH SAEM 1 AN 1, O RLY?\nYA RLY\ni R 0.5\nOIC",
        ] {
            let src = format!("IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\n{body}\nIM OUTTA YR l");
            assert_eq!(lp(&src), Ty::Boxed, "{body}");
        }
    }

    #[test]
    fn operator_result_types() {
        use Ty::*;
        assert_eq!(bin(BinOp::Sum, Int, Int), Int);
        assert_eq!(bin(BinOp::Sum, Int, Bool), Int);
        assert_eq!(bin(BinOp::Quoshunt, Int, Dbl), Dbl);
        assert_eq!(bin(BinOp::Mod, Boxed, Dbl), Boxed);
        assert_eq!(bin(BinOp::Bigger, Boxed, Int), Bool);
        assert_eq!(bin(BinOp::BothSaem, Dbl, Dbl), Bool);
        assert_eq!(saem_domain(Int, Int), Some(Int));
        assert_eq!(saem_domain(Int, Dbl), Some(Dbl));
        assert_eq!(saem_domain(Bool, Bool), Some(Bool));
        assert_eq!(saem_domain(Bool, Int), None);
        assert_eq!(saem_domain(Boxed, Int), None);
        assert_eq!(un(UnOp::Squar, Bool), Int);
        assert_eq!(un(UnOp::Squar, Dbl), Dbl);
        assert_eq!(un(UnOp::Flip, Int), Dbl);
        assert_eq!(un(UnOp::Not, Dbl), Bool);
        assert_eq!(nary(NaryOp::Smoosh), Boxed);
        assert_eq!(cell(LolType::Yarn), Int);
        assert_eq!(cast(LolType::Yarn), Boxed);
    }
}
