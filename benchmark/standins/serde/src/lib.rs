//! Stand-in for `serde`: `#[derive(Serialize, Deserialize)]` and every
//! `#[serde(...)]` helper attribute are accepted and expand to nothing, so
//! no type in a benchmark build implements any (de)serialisation. The paired
//! `serde_json` stand-in fails loudly at run time if a measured path asks
//! for one anyway.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
