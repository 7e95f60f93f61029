//! Quickstart: the paper's §2.1 walkthrough end to end.
//!
//! Defines the `Remote` array type from the paper, creates and loads an
//! instance, addresses it basic (`A[7,8]`) and enhanced (`A{70,80}`), and
//! runs the operator suite through both front ends (AQL text and the Rust
//! binding), which lower to the same parse tree.
//!
//! Run with: `cargo run --example quickstart`

use scidb::core::enhance::Scale;
use scidb::core::expr::Expr;
use scidb::query::{scan, Database, StoredArray};
use std::sync::Arc;

fn main() -> scidb::Result<()> {
    let mut db = Database::new();

    // ---- define / create / insert (§2.1 syntax) -------------------------
    db.run(
        "define Remote (s1 = float, s2 = float, s3 = float) (I = 1:16, J = 1:16);
         create My_remote as Remote [16, 16];",
    )?;
    for i in 1..=16 {
        for j in 1..=16 {
            db.run(&format!(
                "insert into My_remote[{i}, {j}] values ({}, {}, {})",
                (i * 10 + j) as f64,
                (i + j) as f64 * 0.5,
                1.0
            ))?;
        }
    }

    // Basic addressing: A[7, 8] and A[7, 8].s1.
    let a = db.query("scan(My_remote)")?;
    println!("My_remote[7, 8]       = {:?}", a.get_cell(&[7, 8]).unwrap());
    println!(
        "My_remote[7, 8].s1    = {}",
        a.get_named("s1", &[7, 8])?.unwrap()
    );

    // ---- enhancement: Enhance My_remote with Scale10 ---------------------
    db.registry_mut()
        .register_enhancement(Arc::new(Scale::scale10(2)))?;
    db.run("enhance My_remote with Scale10")?;
    if let StoredArray::Plain(arr) = &*db.array("My_remote")? {
        let enhanced = arr.get_enhanced(
            None,
            &[
                scidb::core::enhance::PseudoValue::Int(70),
                scidb::core::enhance::PseudoValue::Int(80),
            ],
        )?;
        println!(
            "My_remote{{70, 80}}    = {:?} (same cell as [7, 8])",
            enhanced.unwrap()
        );
    }

    // ---- operators through AQL -------------------------------------------
    let sub = db.query("subsample(My_remote, even(I) and J <= 4)")?;
    println!(
        "\nSubsample(even(I) and J <= 4): {} cells",
        sub.cell_count()
    );

    let agg = db.query("aggregate(My_remote, {I}, avg(s1))")?;
    println!(
        "Aggregate({{I}}, avg(s1)) row 7: {}",
        agg.get_cell(&[7]).unwrap()[0]
    );

    let rg = db.query("regrid(My_remote, [4, 4], avg)")?;
    println!("Regrid 4x4: {} blocks", rg.cell_count());

    // ---- the same pipeline via the Rust language binding (§2.4) ----------
    let stmt = scan("My_remote")
        .filter(Expr::attr("s1").gt(Expr::lit(100.0)))
        .aggregate(&[], "count", "s1")
        .into_stmt();
    println!("\nRust binding lowers to AQL: {stmt}");
    let out = db.session().execute(stmt)?.into_array()?;
    println!("cells with s1 > 100   = {}", out.get_cell(&[1]).unwrap()[0]);

    // ---- store / drop -----------------------------------------------------
    db.run("store filter(My_remote, s1 > 100.0) into Bright")?;
    println!("stored arrays          = {:?}", db.array_names());
    db.run("drop array Bright")?;
    Ok(())
}
