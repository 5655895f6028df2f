//! The wiki itself.
//!
//! Articles are stored in title order because the paper's primary dataset is
//! "the first 10,000 articles in alphabetical order" from the category of
//! articles with permanently dead links (§2.4). The category is computed,
//! not stored — exactly like a MediaWiki tracking category.

use crate::article::Article;
use permadead_url::Url;
use std::collections::BTreeMap;

/// A wiki: title → article, title-ordered.
#[derive(Debug, Default)]
pub struct WikiStore {
    articles: BTreeMap<String, Article>,
}

impl WikiStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, article: Article) {
        self.articles.insert(article.title.clone(), article);
    }

    pub fn get(&self, title: &str) -> Option<&Article> {
        self.articles.get(title)
    }

    pub fn get_mut(&mut self, title: &str) -> Option<&mut Article> {
        self.articles.get_mut(title)
    }

    pub fn len(&self) -> usize {
        self.articles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.articles.is_empty()
    }

    /// All articles in title (alphabetical) order.
    pub fn articles(&self) -> impl Iterator<Item = &Article> {
        self.articles.values()
    }

    /// The tracking category: articles whose current revision contains at
    /// least one `{{dead link}}`-tagged reference, in title order (§2.2).
    pub fn permanently_dead_category(&self) -> Vec<&Article> {
        self.articles
            .values()
            .filter(|a| a.has_permanently_dead_link())
            .collect()
    }

    /// Every (article title, URL) pair currently tagged permanently dead.
    /// One URL can be tagged in several articles; the paper counts unique
    /// URLs (290,669 of them in March 2022).
    pub fn permanently_dead_links(&self) -> Vec<(String, Url)> {
        let mut out = Vec::new();
        for a in self.articles.values() {
            for r in a.current_doc().refs() {
                if r.is_permanently_dead() {
                    out.push((a.title.clone(), r.url.clone()));
                }
            }
        }
        out
    }

    /// Unique permanently-dead URLs across the whole wiki.
    pub fn unique_permanently_dead_urls(&self) -> Vec<Url> {
        let mut urls: Vec<Url> = self
            .permanently_dead_links()
            .into_iter()
            .map(|(_, u)| u)
            .collect();
        urls.sort();
        urls.dedup();
        urls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::User;
    use crate::wikitext::{CiteRef, DeadLinkTag, Document, UrlStatus};
    use permadead_net::SimTime;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t() -> SimTime {
        SimTime::from_ymd(2020, 1, 1)
    }

    fn make_article(title: &str, urls: &[(&str, bool)]) -> Article {
        let mut a = Article::new(title);
        let mut doc = Document::new();
        for (url, dead) in urls {
            let mut r = CiteRef::cite_web(u(url), "T");
            if *dead {
                r.url_status = UrlStatus::Dead;
                r.dead_link = Some(DeadLinkTag {
                    date: "March 2022".into(),
                    bot: Some("InternetArchiveBot".into()),
                });
            }
            doc.push_ref(r);
        }
        a.save_doc(t(), User::human("E"), &doc, "create");
        a
    }

    fn store() -> WikiStore {
        let mut w = WikiStore::new();
        w.insert(make_article("Zebra", &[("http://z.org/1", true)]));
        w.insert(make_article("Apple", &[("http://a.org/1", true), ("http://a.org/2", false)]));
        w.insert(make_article("Mango", &[("http://m.org/1", false)]));
        w.insert(make_article("Banana", &[("http://a.org/1", true)])); // same dead URL as Apple
        w
    }

    #[test]
    fn title_order_iteration() {
        let w = store();
        let titles: Vec<&str> = w.articles().map(|a| a.title.as_str()).collect();
        assert_eq!(titles, vec!["Apple", "Banana", "Mango", "Zebra"]);
    }

    #[test]
    fn category_is_alphabetical_and_filtered() {
        let w = store();
        let cat: Vec<&str> = w
            .permanently_dead_category()
            .iter()
            .map(|a| a.title.as_str())
            .collect();
        assert_eq!(cat, vec!["Apple", "Banana", "Zebra"]);
    }

    #[test]
    fn dead_links_enumerated_per_article() {
        let w = store();
        let links = w.permanently_dead_links();
        assert_eq!(links.len(), 3); // Apple:a1, Banana:a1, Zebra:z1
    }

    #[test]
    fn unique_urls_deduplicated() {
        let w = store();
        let urls = w.unique_permanently_dead_urls();
        assert_eq!(urls.len(), 2); // a.org/1 (twice) and z.org/1
    }

    #[test]
    fn get_and_mutate() {
        let mut w = store();
        assert!(w.get("Apple").is_some());
        assert!(w.get("Nope").is_none());
        let a = w.get_mut("Mango").unwrap();
        let mut doc = a.current_doc();
        doc.ref_for_mut(&u("http://m.org/1")).unwrap().dead_link = Some(DeadLinkTag {
            date: "April 2022".into(),
            bot: None,
        });
        a.save_doc(SimTime::from_ymd(2022, 4, 1), User::human("F"), &doc, "tag");
        assert_eq!(w.permanently_dead_category().len(), 4);
    }
}
