//! Table catalog: cardinalities, column widths, page math.

use std::fmt;

/// Identifies a table in a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl TableId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies a column: table plus position within the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnId {
    pub table: TableId,
    pub column: u32,
}

/// A column definition.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    /// Width in bytes per tuple.
    pub bytes: f64,
}

/// A base table.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    /// Estimated row count (>= 1, per the paper's model).
    pub cardinality: f64,
    pub columns: Vec<Column>,
    /// Whether the on-disk data is physically sorted on the join key — the
    /// base-table-provided interesting order of §5.4.
    pub sorted: bool,
}

impl Table {
    /// Total tuple width: the sum of column widths, or the catalog default
    /// when the table has no declared columns.
    pub fn tuple_bytes(&self, default_bytes: f64) -> f64 {
        if self.columns.is_empty() {
            default_bytes
        } else {
            self.columns.iter().map(|c| c.bytes).sum()
        }
    }
}

/// A catalog of base tables plus global storage parameters.
#[derive(Debug, Clone)]
pub struct Catalog {
    tables: Vec<Table>,
    /// Bytes per disk page.
    pub page_size_bytes: f64,
    /// Default tuple width for tables without declared columns (the paper's
    /// simplified "fixed byte size per tuple").
    pub default_tuple_bytes: f64,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            tables: Vec::new(),
            page_size_bytes: 8192.0,
            default_tuple_bytes: 64.0,
        }
    }
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table with the default tuple layout.
    pub fn add_table(&mut self, name: impl Into<String>, cardinality: f64) -> TableId {
        assert!(cardinality >= 1.0, "the paper's model assumes Card(t) >= 1");
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Table {
            name: name.into(),
            cardinality,
            columns: Vec::new(),
            sorted: false,
        });
        id
    }

    /// Adds a table with explicit columns.
    pub fn add_table_with_columns(
        &mut self,
        name: impl Into<String>,
        cardinality: f64,
        columns: Vec<Column>,
    ) -> TableId {
        let id = self.add_table(name, cardinality);
        self.tables[id.index()].columns = columns;
        id
    }

    /// Adds a column to an existing table; returns its id.
    pub fn add_column(&mut self, table: TableId, name: impl Into<String>, bytes: f64) -> ColumnId {
        let t = &mut self.tables[table.index()];
        t.columns.push(Column {
            name: name.into(),
            bytes,
        });
        ColumnId {
            table,
            column: (t.columns.len() - 1) as u32,
        }
    }

    /// Marks a table as physically sorted on its join key (interesting
    /// orders extension, §5.4).
    pub fn set_table_sorted(&mut self, id: TableId, sorted: bool) {
        self.tables[id.index()].sorted = sorted;
    }

    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    pub fn column(&self, id: ColumnId) -> &Column {
        &self.tables[id.table.index()].columns[id.column as usize]
    }

    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Cardinality of a table.
    pub fn cardinality(&self, id: TableId) -> f64 {
        self.table(id).cardinality
    }

    /// log10 of a table's cardinality.
    pub fn log10_cardinality(&self, id: TableId) -> f64 {
        self.cardinality(id).log10()
    }

    /// Tuple width of a table in bytes.
    pub fn tuple_bytes(&self, id: TableId) -> f64 {
        self.table(id).tuple_bytes(self.default_tuple_bytes)
    }

    /// Number of disk pages a table occupies.
    pub fn table_pages(&self, id: TableId) -> f64 {
        self.pages_for(self.cardinality(id), self.tuple_bytes(id))
    }

    /// Pages for `cardinality` rows of `tuple_bytes`-wide tuples.
    pub fn pages_for(&self, cardinality: f64, tuple_bytes: f64) -> f64 {
        (cardinality * tuple_bytes / self.page_size_bytes)
            .ceil()
            .max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut c = Catalog::new();
        let r = c.add_table("R", 1000.0);
        let s = c.add_table("S", 50.0);
        assert_eq!(c.num_tables(), 2);
        assert_eq!(c.cardinality(r), 1000.0);
        assert_eq!(c.table(s).name, "S");
        assert_eq!(c.log10_cardinality(r), 3.0);
    }

    #[test]
    fn tuple_bytes_default_and_columns() {
        let mut c = Catalog::new();
        let r = c.add_table("R", 10.0);
        assert_eq!(c.tuple_bytes(r), c.default_tuple_bytes);
        let s = c.add_table_with_columns(
            "S",
            10.0,
            vec![
                Column {
                    name: "a".into(),
                    bytes: 4.0,
                },
                Column {
                    name: "b".into(),
                    bytes: 12.0,
                },
            ],
        );
        assert_eq!(c.tuple_bytes(s), 16.0);
    }

    #[test]
    fn page_math() {
        let mut c = Catalog::new();
        c.page_size_bytes = 100.0;
        c.default_tuple_bytes = 10.0;
        let r = c.add_table("R", 99.0);
        // 99 tuples * 10 B = 990 B -> 10 pages.
        assert_eq!(c.table_pages(r), 10.0);
        // Minimum one page.
        let tiny = c.add_table("tiny", 1.0);
        assert_eq!(c.table_pages(tiny), 1.0);
    }

    #[test]
    fn column_ids() {
        let mut c = Catalog::new();
        let r = c.add_table("R", 10.0);
        let a = c.add_column(r, "a", 8.0);
        let b = c.add_column(r, "b", 4.0);
        assert_eq!(c.column(a).bytes, 8.0);
        assert_eq!(c.column(b).name, "b");
        assert_eq!(c.tuple_bytes(r), 12.0);
    }

    #[test]
    #[should_panic(expected = "Card(t) >= 1")]
    fn rejects_zero_cardinality() {
        let mut c = Catalog::new();
        c.add_table("bad", 0.0);
    }
}
