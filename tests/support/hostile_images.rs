// The adversarial table for the one array-image decoder
// (`scidb_core::codec`). Images are assembled byte by byte, without the
// codec, so the table also pins the layout. `include!`d by
// `crates/server/tests/hostile_images.rs` (wire entry point) and
// `tests/failure_injection.rs` (WAL entry point).

/// What one image is built from; `Spec::valid` is a well-formed array with
/// a nested-array attribute, and each hostile image changes one field.
#[derive(Clone)]
struct Spec {
    name: Vec<u8>,
    /// Levels of nested-array attribute below the top-level array.
    depth: usize,
    n_attrs: Option<u32>,
    attr_kind: u8,
    scalar_tag: u8,
    n_dims: Option<u32>,
    n_cells: u64,
    n_vals: Option<u32>,
    value_tag: u8,
}

impl Spec {
    fn valid(depth: usize) -> Spec {
        Spec {
            name: b"outer".to_vec(),
            depth,
            n_attrs: None,
            attr_kind: 0,
            scalar_tag: 1,
            n_dims: None,
            n_cells: 1,
            n_vals: None,
            value_tag: 1,
        }
    }

    fn image(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.array(&mut b, 0);
        b
    }

    fn schema(&self, b: &mut Vec<u8>, level: usize) {
        let top = level == 0;
        let nested = level < self.depth;
        put_str(b, if top { &self.name } else { b"inner" });
        b.push(0); // not updatable
        let n_attrs = 1 + u32::from(nested);
        put_u32(b, self.n_attrs.filter(|_| top).unwrap_or(n_attrs));
        put_str(b, b"v");
        b.push(1); // nullable
        b.push(if top { self.attr_kind } else { 0 });
        b.push(if top { self.scalar_tag } else { 1 });
        if nested {
            put_str(b, b"n");
            b.push(1);
            b.push(1); // nested-array attribute
            self.schema(b, level + 1);
        }
        put_u32(b, self.n_dims.filter(|_| top).unwrap_or(1));
        put_str(b, b"X");
        put_i64(b, 4); // upper bound
        put_i64(b, 4); // chunk length
    }

    fn array(&self, b: &mut Vec<u8>, level: usize) {
        let top = level == 0;
        let nested = level < self.depth;
        self.schema(b, level);
        b.extend_from_slice(&(if top { self.n_cells } else { 1 }).to_be_bytes());
        put_i64(b, 1); // the cell at X = 1
        let n_vals = 1 + u32::from(nested);
        put_u32(b, self.n_vals.filter(|_| top).unwrap_or(n_vals));
        b.push(if top { self.value_tag } else { 1 });
        put_i64(b, 7);
        if nested {
            b.push(6); // nested-array value
            self.array(b, level + 1);
        }
    }
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_be_bytes());
}

fn put_i64(b: &mut Vec<u8>, v: i64) {
    b.extend_from_slice(&v.to_be_bytes());
}

fn put_str(b: &mut Vec<u8>, s: &[u8]) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s);
}

/// Images every entry point must accept: one level of nesting, and the
/// deepest nesting the decoder allows.
fn valid_images() -> Vec<Vec<u8>> {
    vec![Spec::valid(1).image(), Spec::valid(8).image()]
}

/// `(what is wrong, image)`: every entry point must answer each with its
/// typed error, without panicking.
fn hostile_images() -> Vec<(String, Vec<u8>)> {
    let valid = Spec::valid(1);
    let image = valid.image();
    let mut table: Vec<(String, Vec<u8>)> = (0..image.len())
        .map(|cut| (format!("truncated at {cut}"), image[..cut].to_vec()))
        .collect();
    let mut case = |what: &str, change: &dyn Fn(&mut Spec)| {
        let mut spec = valid.clone();
        change(&mut spec);
        table.push((what.to_string(), spec.image()));
    };
    case("attribute count u32::MAX", &|s| s.n_attrs = Some(u32::MAX));
    case("attribute count one too many", &|s| s.n_attrs = Some(3));
    case("dimension count u32::MAX", &|s| s.n_dims = Some(u32::MAX));
    case("cell count u64::MAX", &|s| s.n_cells = u64::MAX);
    case("cell count one too many", &|s| s.n_cells = 2);
    case("value count u32::MAX", &|s| s.n_vals = Some(u32::MAX));
    case("nesting 9 deep", &|s| s.depth = 9);
    case("unknown scalar tag 0", &|s| s.scalar_tag = 0);
    case("unknown scalar tag 9", &|s| s.scalar_tag = 9);
    case("unknown attribute tag", &|s| s.attr_kind = 7);
    case("unknown value tag", &|s| s.value_tag = 9);
    case("non-UTF-8 name", &|s| s.name = vec![0xff, 0xfe]);
    for garbage in [&[0u8][..], &image[..]] {
        let mut long = image.clone();
        long.extend_from_slice(garbage);
        table.push((format!("{} trailing bytes", garbage.len()), long));
    }
    table
}
