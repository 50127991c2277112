//! The shared dataset: a small sales mart generated from the seed and
//! loaded through the catalog API.
//!
//! - `mart.sales`: 100k rows of (id, product, store, day, qty, discount);
//!   about 30% of the discounts are NULL.
//! - `mart.products`: 10k rows in 50 categories.
//! - `mart.stores`: 200 rows in 8 regions.

use crate::rng::Rng;
use rcalcite_core::catalog::{Catalog, MemTable, Schema};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use std::sync::Arc;

pub const SALES: i64 = 100_000;
pub const PRODUCTS: i64 = 10_000;
pub const CATEGORIES: i64 = 50;
pub const STORES: i64 = 200;
pub const REGIONS: i64 = 8;
pub const DAYS: i64 = 365;
pub const MAX_QTY: i64 = 20;
pub const NULL_DISCOUNT_PERCENT: u64 = 30;

/// Random stream ids: one per consumer of the seed.
pub const STREAM_DATA: u64 = 1;
pub const STREAM_LITERALS: u64 = 2;
pub const STREAM_OPS: u64 = 3;
pub const STREAM_WRITES: u64 = 4;

/// Generated table contents.
#[derive(Clone, PartialEq, Debug)]
pub struct Dataset {
    pub sales: Vec<Row>,
    pub products: Vec<Row>,
    pub stores: Vec<Row>,
}

impl Dataset {
    pub fn generate(seed: u64) -> Dataset {
        let mut rng = Rng::derive(seed, STREAM_DATA);
        let sales = (0..SALES).map(|id| sales_row(&mut rng, id)).collect();
        let products = (0..PRODUCTS)
            .map(|id| {
                vec![
                    Datum::Int(id),
                    Datum::str(format!("product-{id:05}")),
                    Datum::str(format!("category-{:02}", rng.below_i64(CATEGORIES))),
                    Datum::Int(1 + rng.below_i64(500)),
                ]
            })
            .collect();
        let stores = (0..STORES)
            .map(|id| {
                vec![
                    Datum::Int(id),
                    Datum::str(format!("store-{id:03}")),
                    Datum::str(format!("region-{}", rng.below_i64(REGIONS))),
                ]
            })
            .collect();
        Dataset {
            sales,
            products,
            stores,
        }
    }

    /// A fresh catalog holding this data in schema `mart` (the default
    /// schema). No indexes, no statistics: callers add those through SQL.
    pub fn load(self) -> Arc<Catalog> {
        let catalog = Catalog::new();
        let mart = Schema::new();
        mart.add_table(
            "sales",
            MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("id", TypeKind::Integer)
                    .add_not_null("product", TypeKind::Integer)
                    .add_not_null("store", TypeKind::Integer)
                    .add_not_null("day", TypeKind::Integer)
                    .add_not_null("qty", TypeKind::Integer)
                    .add("discount", TypeKind::Integer)
                    .build(),
                self.sales,
            ),
        );
        mart.add_table(
            "products",
            MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("id", TypeKind::Integer)
                    .add_not_null("name", TypeKind::Varchar)
                    .add_not_null("category", TypeKind::Varchar)
                    .add_not_null("price", TypeKind::Integer)
                    .build(),
                self.products,
            ),
        );
        mart.add_table(
            "stores",
            MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("id", TypeKind::Integer)
                    .add_not_null("name", TypeKind::Varchar)
                    .add_not_null("region", TypeKind::Varchar)
                    .build(),
                self.stores,
            ),
        );
        catalog.add_schema("mart", mart);
        catalog
    }
}

/// One `sales` row with the given id.
pub fn sales_row(rng: &mut Rng, id: i64) -> Row {
    vec![
        Datum::Int(id),
        Datum::Int(rng.below_i64(PRODUCTS)),
        Datum::Int(rng.below_i64(STORES)),
        Datum::Int(rng.below_i64(DAYS)),
        Datum::Int(1 + rng.below_i64(MAX_QTY)),
        if rng.percent(NULL_DISCOUNT_PERCENT) {
            Datum::Null
        } else {
            Datum::Int(rng.below_i64(50))
        },
    ]
}

/// The row as a SQL `VALUES` tuple body.
pub fn sql_values(row: &Row) -> String {
    row.iter()
        .map(|d| match d {
            Datum::Null => "NULL".to_string(),
            other => other.to_string(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}
