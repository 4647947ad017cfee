//! Attacker-visible account management: signup, login, sessions.
//!
//! The simulated OSN lets anyone create an account (the paper's attacker
//! registers a handful of fake adult accounts) and hands out a session
//! cookie on login. Each account also carries a request counter for the
//! anti-crawling suspension rule.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};

/// One registered (attacker) account.
#[derive(Clone, Debug)]
pub struct Account {
    /// Dense index; used to diversify per-account search samples.
    pub index: usize,
    pub username: String,
    password: String,
    /// Requests served so far (anti-crawl accounting).
    pub requests: u64,
    /// Suspended by the anti-crawling rule.
    pub suspended: bool,
    /// Virtual-time stamps of requests inside the sliding suspension
    /// window (only maintained while the windowed rule is enabled).
    recent: VecDeque<u64>,
    /// Attempt sequence number the signup carried (replay-tolerant
    /// mode; see `hsp_http::resilient::H_ATTEMPT_SEQ`).
    signup_seq: Option<u64>,
    /// Highest attempt sequence number served (replay-tolerant mode).
    last_seq: Option<u64>,
    /// Sequence number at which the account was suspended, so replays
    /// of earlier requests still succeed and replays at-or-after it
    /// still see the suspension.
    suspended_at_seq: Option<u64>,
}

/// Errors surfaced to HTTP handlers.
#[derive(Debug, PartialEq, Eq)]
pub enum AccountError {
    UsernameTaken,
    BadCredentials,
    NoSession,
    Suspended,
}

/// Registry of attacker accounts and live sessions.
#[derive(Default)]
pub struct Accounts {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    accounts: Vec<Account>,
    by_name: HashMap<String, usize>,
    /// session id -> account index
    sessions: HashMap<String, usize>,
    session_counter: u64,
}

impl Accounts {
    pub fn new() -> Self {
        Accounts::default()
    }

    /// Create an account. The platform does not verify anything — which
    /// is precisely the paper's point about unverified self-asserted
    /// ages. Replay-tolerant when `seq` (the signup's attempt sequence
    /// number) is present: the account keeps it, and a signup with the
    /// same username, password and seq — a crash-resumed crawler
    /// re-enrolling an account its killed run had created — is answered
    /// as the first one was. Every other signup for a taken username
    /// fails.
    pub fn signup(
        &self,
        username: &str,
        password: &str,
        seq: Option<u64>,
    ) -> Result<usize, AccountError> {
        let mut inner = self.inner.lock();
        if let Some(&index) = inner.by_name.get(username) {
            let account = &inner.accounts[index];
            let replayed = seq.is_some() && account.signup_seq == seq;
            return if replayed && account.password == password {
                Ok(index)
            } else {
                Err(AccountError::UsernameTaken)
            };
        }
        let index = inner.accounts.len();
        inner.accounts.push(Account {
            index,
            username: username.to_string(),
            password: password.to_string(),
            requests: 0,
            suspended: false,
            recent: VecDeque::new(),
            signup_seq: seq,
            last_seq: None,
            suspended_at_seq: None,
        });
        inner.by_name.insert(username.to_string(), index);
        Ok(index)
    }

    /// Log in, returning a fresh session id.
    pub fn login(&self, username: &str, password: &str) -> Result<String, AccountError> {
        let mut inner = self.inner.lock();
        let &index = inner.by_name.get(username).ok_or(AccountError::BadCredentials)?;
        if inner.accounts[index].password != password {
            return Err(AccountError::BadCredentials);
        }
        inner.session_counter += 1;
        let sid = format!("sid-{index}-{:08x}", inner.session_counter.wrapping_mul(0x9e3779b9));
        inner.sessions.insert(sid.clone(), index);
        Ok(sid)
    }

    /// Resolve a session cookie to an account index, bumping the
    /// account's request counter and enforcing the lifetime-total
    /// suspension rule only (no windowed rule).
    pub fn authorize(&self, sid: &str, threshold: u64) -> Result<usize, AccountError> {
        self.authorize_at(sid, threshold, 0, 0, 0)
    }

    /// Like [`Accounts::authorize`], but additionally enforcing the
    /// virtual-time sliding-window rule: more than `max_in_window`
    /// requests within the last `window_ms` virtual milliseconds
    /// (as of `now_ms`) suspends the account. `max_in_window == 0`
    /// disables the windowed rule.
    pub fn authorize_at(
        &self,
        sid: &str,
        threshold: u64,
        max_in_window: u64,
        window_ms: u64,
        now_ms: u64,
    ) -> Result<usize, AccountError> {
        self.authorize_replay_aware(sid, threshold, max_in_window, window_ms, now_ms, None)
            .map(|(index, _)| index)
    }

    /// Like [`Accounts::authorize_at`], but replay-tolerant: when `seq`
    /// is present and the account has already served that sequence
    /// number, nothing is counted (no request-budget increment, no
    /// window entry) and the verdict is whatever it was the first time
    /// — allowed, or suspended if the suspension landed at or before
    /// this seq. This is what lets a crash-resumed crawler re-drive the
    /// request prefix after its last durable commit without pushing the
    /// platform's anti-crawl bookkeeping out of sync with an
    /// uninterrupted run. Returns `(index, replayed)`.
    pub fn authorize_replay_aware(
        &self,
        sid: &str,
        threshold: u64,
        max_in_window: u64,
        window_ms: u64,
        now_ms: u64,
        seq: Option<u64>,
    ) -> Result<(usize, bool), AccountError> {
        let mut inner = self.inner.lock();
        let &index = inner.sessions.get(sid).ok_or(AccountError::NoSession)?;
        let account = &mut inner.accounts[index];
        if let Some(s) = seq {
            if account.last_seq.is_some_and(|last| s <= last) {
                // Replay: reproduce the original verdict, count nothing.
                return match account.suspended_at_seq {
                    Some(at) if s >= at => Err(AccountError::Suspended),
                    _ => Ok((index, true)),
                };
            }
            account.last_seq = Some(s);
        }
        if account.suspended {
            return Err(AccountError::Suspended);
        }
        account.requests += 1;
        if account.requests > threshold {
            account.suspended = true;
            account.suspended_at_seq = seq;
            return Err(AccountError::Suspended);
        }
        if max_in_window > 0 {
            account.recent.push_back(now_ms);
            let horizon = now_ms.saturating_sub(window_ms);
            while account.recent.front().is_some_and(|&t| t < horizon) {
                account.recent.pop_front();
            }
            if account.recent.len() as u64 > max_in_window {
                account.suspended = true;
                account.suspended_at_seq = seq;
                return Err(AccountError::Suspended);
            }
        }
        Ok((index, false))
    }

    /// Suspend an account outright (scripted fault-plan escalation).
    pub fn force_suspend(&self, index: usize) {
        self.force_suspend_at(index, None);
    }

    /// Like [`Accounts::force_suspend`], recording the attempt sequence
    /// the suspension landed at so replays stay faithful.
    pub fn force_suspend_at(&self, index: usize, seq: Option<u64>) {
        let mut inner = self.inner.lock();
        let account = &mut inner.accounts[index];
        account.suspended = true;
        if account.suspended_at_seq.is_none() {
            account.suspended_at_seq = seq;
        }
    }

    /// Evict a live session (fault-plan session expiry). Returns
    /// whether the session existed.
    pub fn expire_session(&self, sid: &str) -> bool {
        self.inner.lock().sessions.remove(sid).is_some()
    }

    /// Request count for an account (tests / effort cross-checks).
    pub fn request_count(&self, index: usize) -> u64 {
        self.inner.lock().accounts[index].requests
    }

    pub fn is_suspended(&self, index: usize) -> bool {
        self.inner.lock().accounts[index].suspended
    }

    pub fn account_count(&self) -> usize {
        self.inner.lock().accounts.len()
    }

    /// Live (logged-in) session count.
    pub fn session_count(&self) -> usize {
        self.inner.lock().sessions.len()
    }

    /// Accounts tripped by the anti-crawling rule.
    pub fn suspended_count(&self) -> usize {
        self.inner.lock().accounts.iter().filter(|a| a.suspended).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signup_login_authorize_flow() {
        let accounts = Accounts::new();
        let idx = accounts.signup("spy1", "pw", None).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(accounts.signup("spy1", "pw", None), Err(AccountError::UsernameTaken));
        assert_eq!(accounts.login("spy1", "wrong"), Err(AccountError::BadCredentials));
        assert_eq!(accounts.login("nobody", "pw"), Err(AccountError::BadCredentials));
        let sid = accounts.login("spy1", "pw").unwrap();
        assert_eq!(accounts.authorize(&sid, 100), Ok(0));
        assert_eq!(accounts.authorize("bogus", 100), Err(AccountError::NoSession));
    }

    #[test]
    fn a_signup_replays_only_its_own_seq() {
        let accounts = Accounts::new();
        accounts.signup("other", "pw", Some(0)).unwrap();
        assert_eq!(accounts.signup("spy", "pw", Some(3)), Ok(1));
        assert_eq!(accounts.signup("spy", "pw", Some(3)), Ok(1), "a replay is answered again");
        assert_eq!(accounts.signup("spy", "pw", Some(4)), Err(AccountError::UsernameTaken));
        assert_eq!(accounts.signup("spy", "pw", None), Err(AccountError::UsernameTaken));
        assert_eq!(accounts.signup("spy", "other", Some(3)), Err(AccountError::UsernameTaken));
        accounts.signup("bare", "pw", None).unwrap();
        assert_eq!(accounts.signup("bare", "pw", None), Err(AccountError::UsernameTaken));
        assert_eq!(accounts.account_count(), 3);
    }

    #[test]
    fn two_logins_get_distinct_sessions() {
        let accounts = Accounts::new();
        accounts.signup("a", "p", None).unwrap();
        let s1 = accounts.login("a", "p").unwrap();
        let s2 = accounts.login("a", "p").unwrap();
        assert_ne!(s1, s2);
        assert_eq!(accounts.authorize(&s1, 100), Ok(0));
        assert_eq!(accounts.authorize(&s2, 100), Ok(0));
    }

    #[test]
    fn suspension_after_threshold() {
        let accounts = Accounts::new();
        accounts.signup("greedy", "p", None).unwrap();
        let sid = accounts.login("greedy", "p").unwrap();
        for _ in 0..5 {
            assert!(accounts.authorize(&sid, 5).is_ok());
        }
        assert_eq!(accounts.authorize(&sid, 5), Err(AccountError::Suspended));
        // Stays suspended.
        assert_eq!(accounts.authorize(&sid, 5), Err(AccountError::Suspended));
        assert!(accounts.is_suspended(0));
    }

    #[test]
    fn windowed_rule_politeness_buys_headroom() {
        // Two identical budgets of 100 requests under a "max 10 per
        // virtual minute" rule. The impolite crawler fires them all at
        // the same virtual instant and is suspended on request 11; the
        // polite one spaces them 10s apart (advancing virtual time) and
        // finishes the full budget untouched.
        let accounts = Accounts::new();
        accounts.signup("impolite", "p", None).unwrap();
        accounts.signup("polite", "p", None).unwrap();
        let rude = accounts.login("impolite", "p").unwrap();
        let nice = accounts.login("polite", "p").unwrap();

        let mut rude_served = 0;
        for _ in 0..100 {
            match accounts.authorize_at(&rude, 1_000_000, 10, 60_000, 0) {
                Ok(_) => rude_served += 1,
                Err(AccountError::Suspended) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(rude_served, 10, "11th same-instant request must suspend");
        assert!(accounts.is_suspended(0));

        for i in 0..100u64 {
            let now = i * 10_000; // 10 virtual seconds of sleep per request
            accounts
                .authorize_at(&nice, 1_000_000, 10, 60_000, now)
                .expect("polite crawler must never be suspended");
        }
        assert!(!accounts.is_suspended(1));
        assert_eq!(accounts.request_count(1), 100);
    }

    #[test]
    fn windowed_rule_disabled_when_zero() {
        let accounts = Accounts::new();
        accounts.signup("a", "p", None).unwrap();
        let sid = accounts.login("a", "p").unwrap();
        for _ in 0..1_000 {
            accounts.authorize_at(&sid, 1_000_000, 0, 60_000, 0).unwrap();
        }
        assert!(!accounts.is_suspended(0));
    }

    #[test]
    fn force_suspend_and_session_expiry() {
        let accounts = Accounts::new();
        accounts.signup("a", "p", None).unwrap();
        let sid = accounts.login("a", "p").unwrap();
        assert!(accounts.expire_session(&sid));
        assert!(!accounts.expire_session(&sid), "already evicted");
        assert_eq!(accounts.authorize(&sid, 100), Err(AccountError::NoSession));
        // A fresh login works until the account itself is suspended.
        let sid = accounts.login("a", "p").unwrap();
        accounts.force_suspend(0);
        assert_eq!(accounts.authorize(&sid, 100), Err(AccountError::Suspended));
        assert_eq!(accounts.suspended_count(), 1);
    }

    #[test]
    fn request_counting() {
        let accounts = Accounts::new();
        accounts.signup("c", "p", None).unwrap();
        let sid = accounts.login("c", "p").unwrap();
        for _ in 0..7 {
            accounts.authorize(&sid, 100).unwrap();
        }
        assert_eq!(accounts.request_count(0), 7);
    }
}
