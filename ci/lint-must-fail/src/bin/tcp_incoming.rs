// must-fail: disallowed method `std::net::TcpListener::incoming`
fn main() {
    if let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") {
        println!("{:?}", listener.incoming().next().is_some());
    }
}
