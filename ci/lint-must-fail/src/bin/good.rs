//! Follows every convention the other fixtures break: clippy must accept it.
// header of: serve wire exec grid measure
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
// header of: serve wire
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
// header of: serve wire
#![deny(clippy::wildcard_enum_match_arm)]

use std::collections::BTreeMap;

#[derive(Debug)]
enum Verb {
    Ping,
    Stats,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    #[expect(clippy::indexing_slicing, reason = "argv[0] is always present")]
    let program = &args[0];
    let counts: BTreeMap<&str, usize> = [(program.as_str(), args.len())].into_iter().collect();
    let narrow = u8::try_from(args.len()).unwrap_or(u8::MAX);
    for verb in [Verb::Ping, Verb::Stats] {
        match verb {
            Verb::Ping => println!("pong {narrow}"),
            Verb::Stats => println!("{counts:?}"),
        }
    }
}
