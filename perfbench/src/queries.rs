//! The analytic query stream shared by `olap` and `olap_spill`: seven
//! templates, each with eight seeded literal values, so the stream has
//! at most 56 distinct texts and fits the 128-entry plan cache.

use crate::data::{CATEGORIES, DAYS, PRODUCTS, STORES, STREAM_LITERALS, STREAM_OPS};

const HALF_YEAR: i64 = DAYS / 2;
use crate::rng::Rng;

pub const LITERALS_PER_TEMPLATE: usize = 8;

/// Template names, in template order; used in per-template diagnostics.
pub const TEMPLATE_NAMES: [&str; 7] = [
    "fig4_join_filter_group_order",
    "join_day_range",
    "grouped_top_k",
    "star_join_3way",
    "scalar_aggregate",
    "group_10k",
    "sort_joined_slice",
];

/// One template instantiated with one literal.
fn instantiate(template: usize, v: i64) -> String {
    match template {
        // The paper's Figure 4 query (join, filter, group, order), over
        // one product category.
        0 => format!(
            "SELECT p.name, COUNT(*) AS n FROM sales s JOIN products p ON s.product = p.id \
             WHERE s.discount IS NOT NULL AND p.category = 'category-{v:02}' \
             GROUP BY p.name ORDER BY n DESC, p.name"
        ),
        1 => format!(
            "SELECT st.region, COUNT(*) AS n, SUM(s.qty) AS q \
             FROM sales s JOIN stores st ON s.store = st.id \
             WHERE s.day BETWEEN {v} AND {} \
             GROUP BY st.region ORDER BY st.region",
            v + 29
        ),
        2 => format!(
            "SELECT s.store, SUM(s.qty * s.discount) AS v FROM sales s \
             WHERE s.day BETWEEN {v} AND {} GROUP BY s.store ORDER BY v DESC, s.store LIMIT 10",
            v + HALF_YEAR - 1
        ),
        3 => format!(
            "SELECT p.category, st.region, COUNT(*) AS n, SUM(s.qty) AS q \
             FROM sales s JOIN products p ON s.product = p.id JOIN stores st ON s.store = st.id \
             WHERE s.day BETWEEN {v} AND {} \
             GROUP BY p.category, st.region ORDER BY p.category, st.region",
            v + HALF_YEAR - 1
        ),
        4 => format!(
            "SELECT COUNT(*) AS n, COUNT(s.discount) AS nd, SUM(s.qty) AS q, \
             MIN(s.day) AS lo, MAX(s.day) AS hi FROM sales s \
             WHERE s.product BETWEEN {v} AND {}",
            v + PRODUCTS / 2 - 1
        ),
        5 => format!(
            "SELECT s.product, COUNT(*) AS n, SUM(s.qty) AS q, MAX(s.discount) AS md \
             FROM sales s WHERE s.day BETWEEN {v} AND {} GROUP BY s.product ORDER BY s.product",
            v + HALF_YEAR - 1
        ),
        6 => format!(
            "SELECT s.id, s.qty, p.name FROM sales s JOIN products p ON s.product = p.id \
             WHERE s.store BETWEEN {v} AND {} ORDER BY s.qty DESC, s.id",
            v + STORES / 10 - 1
        ),
        _ => unreachable!("seven templates"),
    }
}

/// The literal domain of each template: values are drawn from
/// `0..span`. Every literal selects a window of the same width, so the
/// work per query, and the run's figures, barely depend on the seed.
fn literal_domain(template: usize) -> i64 {
    match template {
        0 => CATEGORIES,
        1 => DAYS - 30,
        2 | 3 | 5 => DAYS - HALF_YEAR,
        4 => PRODUCTS / 2,
        6 => STORES - STORES / 10,
        _ => unreachable!("seven templates"),
    }
}

/// Every distinct query text, indexed `[template][literal]`.
pub fn texts(seed: u64) -> Vec<Vec<String>> {
    let mut rng = Rng::derive(seed, STREAM_LITERALS);
    (0..TEMPLATE_NAMES.len())
        .map(|t| {
            rng.distinct(LITERALS_PER_TEMPLATE, literal_domain(t))
                .into_iter()
                .map(|v| instantiate(t, v))
                .collect()
        })
        .collect()
}

/// The seeded query stream: an endless sequence of (template, literal)
/// picks. It deals the seven templates in rounds, each round in a
/// shuffled order with a random literal per template, so every prefix
/// of the stream holds each template equally often (within one), and a
/// run's mix of cheap and costly queries does not depend on its length.
pub struct Stream {
    rng: Rng,
    round: Vec<(usize, usize)>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::derive(seed, STREAM_OPS),
            round: Vec::new(),
        }
    }

    pub fn next_pick(&mut self) -> (usize, usize) {
        if self.round.is_empty() {
            let rng = &mut self.rng;
            self.round = (0..TEMPLATE_NAMES.len())
                .map(|t| (t, rng.below(LITERALS_PER_TEMPLATE as u64) as usize))
                .collect();
            rng.shuffle(&mut self.round);
        }
        self.round.pop().expect("a round was just dealt")
    }

    /// Whether every round dealt so far has been picked to its end.
    pub fn between_rounds(&self) -> bool {
        self.round.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    #[test]
    fn same_seed_same_data_and_query_stream() {
        assert_eq!(Dataset::generate(5), Dataset::generate(5));
        assert_ne!(Dataset::generate(5).sales, Dataset::generate(6).sales);
        assert_eq!(texts(5), texts(5));
        assert_ne!(texts(5), texts(6));
        let picks = |seed| {
            let mut s = Stream::new(seed);
            (0..700).map(|_| s.next_pick()).collect::<Vec<_>>()
        };
        assert_eq!(picks(5), picks(5));
        assert_ne!(picks(5), picks(6));
    }

    #[test]
    fn texts_are_distinct_and_rounds_are_balanced() {
        let all: Vec<String> = texts(9).into_iter().flatten().collect();
        let distinct: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(distinct.len(), TEMPLATE_NAMES.len() * LITERALS_PER_TEMPLATE);
        let mut s = Stream::new(9);
        assert!(s.between_rounds());
        let mut counts = [0usize; 7];
        for i in 1..=7 * 30 {
            counts[s.next_pick().0] += 1;
            assert_eq!(s.between_rounds(), i % 7 == 0);
        }
        assert_eq!(counts, [30; 7]);
    }
}
